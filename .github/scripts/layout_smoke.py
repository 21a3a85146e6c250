"""CI smoke for layout construction at the e2e benchmark's scale.

Builds the 41 layouts of one full-grid suite (``orig`` and ``P&H``, then
Torr/auto/ops for each row of ``CACHE_CFA_GRID``) at SF 0.00025 for seeds
7 and 11, and compares the SHA-256 of each layout's address array with the
digests pinned below. At this scale the second STC pass walks its frontier
over much more placed code than at the tier-1 scales. Prints the seconds
spent per layout kind; exits non-zero on any difference.

Run: ``PYTHONPATH=src python .github/scripts/layout_smoke.py``
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import sys
import tempfile
import time

if not os.environ.get("REPRO_CACHE_DIR"):  # a private cache, removed at exit
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-ci-cache-")
    atexit.register(shutil.rmtree, os.environ["REPRO_CACHE_DIR"], ignore_errors=True)

from repro.experiments.config import CACHE_CFA_GRID  # noqa: E402
from repro.experiments.harness import WorkloadSettings, get_workload, layouts_for  # noqa: E402

SCALE = 0.00025
#: seed -> layout -> SHA-256 of its little-endian int64 address array
DIGESTS = {
    7: {
        "orig": "fb10f878c9ed8d9f72bfb1cc47ceaf7d3638cacd8e95ebf87a77bc52442ec1f4",
        "P&H": "a06bcbfd220f7f03e4759097aa9e901b1f0af6685870ad8d632b513e47d934a9",
        "8/2/Torr": "3dc47f1316ac296bfc5446cb483a59c051b0186ea4c56409cfbe02b386f9ae91",
        "8/2/auto": "ae15fd3b29de8bc7beb25278a473af29a9f1be564f869007e247ee2a25b78b97",
        "8/2/ops": "a520b54c43561d9ae46af7663a538328ad58a76d01738cd0e4b03f56008e4055",
        "8/4/Torr": "845e5a302582096af21d505f58f37a4dd46d02860cd02925e104f304d0fb06cf",
        "8/4/auto": "d22e5637e5e312e6b24049afbcea2eee6397f39de45767b8f746192e14f100d0",
        "8/4/ops": "42ecdcddd165dab750cde794216da4a57c19414a76e74a2887842e062f6e6dbf",
        "8/6/Torr": "3a585ac6014d79e7d38f2129b2306aba5b6cb3f6249db854dc5083e8cc9f0180",
        "8/6/auto": "a700f55243c195113c5fdad6480afe694a747d39bc4ed4257487206912771bee",
        "8/6/ops": "ba2c8cfcd2954b89c8c227030ff9c9e32f98b411c5f13d5f7166882a652cc102",
        "16/4/Torr": "9b71a418b49bd1d4c479314c74c9b1942efff3a1e38650e987333978ae30af68",
        "16/4/auto": "f7198d7a7194344852a31d89f19cda95607222fe754d634cf9665fccbf9d9bce",
        "16/4/ops": "dd8353ab4819430cac6570908b3697d8af8f5b7799f2eed4a0bad3c3665cfb49",
        "16/8/Torr": "49b884f42f5980866842b7c782517896d20a53c608a7fc292336d23c7be9d8ea",
        "16/8/auto": "15795abf38b7e02678a6c7da0f66b311e331899c7629a16f19e72634fb767d0e",
        "16/8/ops": "1ca1efdcd45bc016e5a0c7329adf73028613c2f826ccd157d518025341bd2a88",
        "16/12/Torr": "3c862445517d40674c527f04715b6737a8011ae8c5d526d880a9de3ba30b5f1c",
        "16/12/auto": "dc65afd6217f72d156cb8c34971de7434b8a5975b9dd576dea92cb3f4166d82e",
        "16/12/ops": "4a15a0463fd2bcf611a92226267ae8af5e63cc0e80e30b2cfa23df1e4d7bd431",
        "32/4/Torr": "feeb1b5e6c8816ff2dda75212377d6ac87d3b8b563eec720b90dfedba5f1fd3d",
        "32/4/auto": "cbf3a8429737530813cd475bdc9c9b95a953690766896c73806d88f4bf3c0d40",
        "32/4/ops": "a34228802410ba073032ad742b7bcaee7da546ecf66856a7e697068d68a15328",
        "32/8/Torr": "f0dd3539bdf31d840473bcce581d627e3b08c62b0344b629b80df674de5c5544",
        "32/8/auto": "72e80fb61c7760834ca409f3dddceb3df12e4f26ef11ccd6ab155ca8e3d7364e",
        "32/8/ops": "93bddab5e7337b219ae9ca9043724b40ac73f9c957a71cec31ad9d365925745c",
        "32/16/Torr": "a33b668f066e683c0c263ab30173bb6a9dbf878a3e65f6f78ffc56aa37c3c43b",
        "32/16/auto": "ef0794fc7ec97d443589c8765280c8503718f950521305406b319d1b73cfd543",
        "32/16/ops": "62f4fdc439afbbf3d1fee797aedbb9ca1bf7efa3558e383a3f97daba9dbb3cf7",
        "32/24/Torr": "7436b30071f3de75e923541514d4a8d51838ab06f27cb3a4c34d667c7b073168",
        "32/24/auto": "597c1a22ea71737deb83dd80405ecd655182740e671352ddc8fcc84375bcbcd4",
        "32/24/ops": "580e2c4e9ad287be3edf59eb731aedccd6673c198aba307c04b63ed7e3e7fecd",
        "64/8/Torr": "dd7a94da1eb527b4f00736c653f135d2943aa07cfca8b377c1a9fcca311fc9af",
        "64/8/auto": "4f928b9fd3731d4a220419876d8f8972749a3fa575300bb28352e137b0ef5a42",
        "64/8/ops": "75e3852e734bceece4ae8ebea2bbee2dd43ecec0d0296e13b722ad51c6aac25e",
        "64/16/Torr": "5f7e6c6daa08dc4f9af27adca453b2c4842e06e0b6610143b52312ea1032a426",
        "64/16/auto": "3754711b16102318a745cc7b686e8a37bc9cf6a4adbb774e3d353a75440c5c50",
        "64/16/ops": "c72163372080778173a10d4d1581feb51a3177e98a10c73ea5aa8b9e7bf3f0f2",
        "64/24/Torr": "54b7c840b9d72c19a0dcc648d2356044af7687178720453d32b3bbc7e39eb493",
        "64/24/auto": "e2854ff18c7a005dd3607d49e1454977d14e4896fa77bbef638e0df16798a735",
        "64/24/ops": "8c65535abf8d622c4c3859e93e173ff893d34104ceb98fd5981863112c005230",
    },
    11: {
        "orig": "fb10f878c9ed8d9f72bfb1cc47ceaf7d3638cacd8e95ebf87a77bc52442ec1f4",
        "P&H": "b1fb6832cb040767539abbb756a802c18488eb80663d724a416fef40732042ae",
        "8/2/Torr": "f754e0fda407612a18784aa8e0b90df830b03b5d2012e9ecbf50e0ac60a9ec2b",
        "8/2/auto": "bb1d6ed5a301533f17d36615f31fb3a44f570af9448b26f2e9698805aee59045",
        "8/2/ops": "57f8a24ce1101c7d333a90b9192ba55feca94592831424e3d0b90352b45e5a56",
        "8/4/Torr": "6444b3ddb5b73011668bbd38ca2656a3650aadee5382e4f807fb76aea766765e",
        "8/4/auto": "dff97a92dd37df44dfa06f74da94e08c363f92a6a311b9769c6a2e37b5a48c7d",
        "8/4/ops": "f99d436c25649a594df943edee0e0ac993f3fcdb0407bd4c6727bf3cad4be59b",
        "8/6/Torr": "06625172898c1b17013d51d2ebe948c4c16e879609a5c43b5011cb4c0bcf969d",
        "8/6/auto": "ddaa0567ea5ec49350ae12b7ca7ff22b1d223797de5f84d6245e83d0f800bdec",
        "8/6/ops": "7b8768f43d9bda4d9fdfabf5d3ae7343410b298adf019762e4403f434cb25f64",
        "16/4/Torr": "5c448d8f75be7f281de0a13fdd51c67f6fc3f03b6accf9085aa1c1b248790341",
        "16/4/auto": "3f9452b3897a58dc37764f0058d2b362abfc21c6f86eb67608428aa6c0ea9f74",
        "16/4/ops": "0e6c6a598dbf39e0de51615d1b7a0eb159f15081546c2946cc40e622a357f400",
        "16/8/Torr": "77370b0529d9a25c9b6c1945649759b10a16c35dd915c568816add8077fd1b6a",
        "16/8/auto": "bbb0fd601ffba7f23db349a67fa92ad50b725ab34bf78d081775105edae7aa9e",
        "16/8/ops": "b4cc67bfec1ed755fc9385f551920d534aca05bdc3cd49860028c1096a70d6d6",
        "16/12/Torr": "a5e4b47db230de87faf017e37e8fffc6c077f0f629b2660b8bd79ccd5afe8614",
        "16/12/auto": "b9baf59d1047e6e869851ce0ef628973484bd7414791a704944b14d58b2cca04",
        "16/12/ops": "1797557a97d6d1fc83c4c7b843136325996b4f325816b5a75b45216e69a00fb5",
        "32/4/Torr": "07ff95d86b9ef6c48d4158301631a674467ebe784c634770f860bc9392fa0409",
        "32/4/auto": "505765f7e1106dcdb4d7c8fbdbf3541b5e2195f73e1252067361d610e09ff3c2",
        "32/4/ops": "f30cdb5c8f3a0690615f7639ebb2f459c3f49e29c391abd0f616d3b7ff39186c",
        "32/8/Torr": "b5d6321910e0b26fa5fdc964ad3cc62ac5af5f21e73f06f347b4ce851c4ee0ea",
        "32/8/auto": "ab4f2f9fd6c35e19f6caede26b34bd366538341f2f1e3858f0ac7be9c4c36d96",
        "32/8/ops": "d38e99149c9f7633a7e90703cc510745217f0055f1e0c8f3ce8712310f96ca8a",
        "32/16/Torr": "9f74b4d530930bf4a62308a77bcb09b3db41a23198c8c7417cfcdc2cba586edb",
        "32/16/auto": "38472b6e1b703867adaf089d9ed4a55e580cb388838e1829e6b4d20b3dda95ad",
        "32/16/ops": "3b93de5f1b4d008001d0986b35e2f024b7136df383a9b76cdffb46050351a3a2",
        "32/24/Torr": "5f8caf2dd5d7a924bba6519c1c1d55fc2d8c6172d651ff8215c2aada00188f48",
        "32/24/auto": "34e0f064a0018ba9aab3009b259cad8257e022f04bc0ddd23bc45034a84a9f3c",
        "32/24/ops": "ec6f54dcfc66bb8ab33cb317064e6a5f7d776cb7c21ea0225da2ecd61ab7ef3a",
        "64/8/Torr": "b5d6321910e0b26fa5fdc964ad3cc62ac5af5f21e73f06f347b4ce851c4ee0ea",
        "64/8/auto": "ab4f2f9fd6c35e19f6caede26b34bd366538341f2f1e3858f0ac7be9c4c36d96",
        "64/8/ops": "d38e99149c9f7633a7e90703cc510745217f0055f1e0c8f3ce8712310f96ca8a",
        "64/16/Torr": "9f74b4d530930bf4a62308a77bcb09b3db41a23198c8c7417cfcdc2cba586edb",
        "64/16/auto": "38472b6e1b703867adaf089d9ed4a55e580cb388838e1829e6b4d20b3dda95ad",
        "64/16/ops": "6e868cf036b6582cf44f53f81670becf5099064867ddda174c8993910ad74d6e",
        "64/24/Torr": "5f8caf2dd5d7a924bba6519c1c1d55fc2d8c6172d651ff8215c2aada00188f48",
        "64/24/auto": "34e0f064a0018ba9aab3009b259cad8257e022f04bc0ddd23bc45034a84a9f3c",
        "64/24/ops": "3659adcf65d73b536bd01afeab92444907b5a4d8487ba7d031f68197f011db97",
    },
}


def main() -> None:
    failures = []
    seconds: dict[str, float] = {}
    rows = [(8, 2, ("orig", "P&H"))] + [(c, f, ("Torr", "auto", "ops")) for c, f in CACHE_CFA_GRID]
    for seed, expected in DIGESTS.items():
        workload = get_workload(WorkloadSettings(scale=SCALE, seed=seed))
        layouts_for(workload, 8, 2, names=("orig",))  # profile the workload off the clock
        for cache, cfa, names in rows:
            for name in names:
                start = time.perf_counter()
                layout = layouts_for(workload, cache, cfa, names=(name,))[name]
                seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
                key = name if name in ("orig", "P&H") else f"{cache}/{cfa}/{name}"
                digest = hashlib.sha256(layout.address.astype("<i8").tobytes()).hexdigest()
                if digest != expected[key]:
                    failures.append(f"seed {seed} {key}")
    for name, secs in seconds.items():
        print(f"layout {name:<5} {secs:6.2f} s over {len(DIGESTS)} seeds")
    print(f"layout total {sum(seconds.values()):6.2f} s")
    if failures:
        sys.exit("FAIL: layout digests differ: " + ", ".join(failures))
    print(f"OK: {sum(len(d) for d in DIGESTS.values())} layouts match their pinned digests")


if __name__ == "__main__":
    main()
