#!/usr/bin/env python3
"""Run every preset and parallelism vector functionally at full size.

Example:
    python3 scripts/full_size.py full_size.json
    python3 scripts/full_size.py other_precisions.json --precisions 1 2 8
    python3 scripts/full_size.py one.json --precisions 8 --only alexnet-P1

Each combination runs `python -m pimsim --preset NAME --parallelism P
--mode functional --rows 4096 --cols 32768 --precision N`, in a child
process of its own that imports pimsim from this checkout. --precisions
names the precisions N to run, 4 by default; at each, every combination
that DIGESTS pins at N runs: all nine at n = 4, AlexNet P1-P3 and ResNet18
P1 at n = 1, 2 and 8, and VGG16 P1 at n = 8. The wall time, the child's peak RSS (ru_maxrss) and
its minor page faults (ru_minflt) go to the JSON file named on the command
line, keyed NAME-P-nN. A combination passes when the child exits 0 with an
oracle PASS and the sha256 of its report.json, report.txt and plan.txt
equal DIGESTS. --only NAME-P, repeatable, runs only those combinations;
each must be pinned at every precision asked for, or the script exits 2
before it runs any. The exit status is 1 when any combination fails.

The whole sweep takes minutes (VGG16 is most of it), so it is not part of
the test suite; a test checks only that DIGESTS covers every preset's
parallelism vectors.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pimsim.cli import REPORT_NAMES
from pimsim.presets import PARALLELISM

ARGS = ("--mode", "functional", "--rows", "4096", "--cols", "32768")

# sha256 of report.json, report.txt and plan.txt per precision and
# combination, pinned from the first run that passed. The n = 1, 2 and 8
# digests come from the last tree whose compiled multiply folded no
# constants, so they check that folding changed no report byte; VGG16 P1's
# at n = 8 come from the last tree that built a fresh state for every
# chunk, so they check that reusing one state per layer changed none.
DIGESTS = {4: {
    "alexnet-P1": (
        "e1634ba1164642afdb144c73b8aec8349b844a4a6968d838de5bd18b780dc607",
        "5187c8b317d4248f1cafd28ebb29c204917bf7856590f16fc64759e6a711fa7d",
        "63a035e5237c692e2f77eaaa60241dbb9a294618335c12d6856ff0245b3e1e2f"),
    "alexnet-P2": (
        "e33113fc7add1c35c5e12ed267d324550ebfa43594fe81a3576376011f7dd0b8",
        "4957d8c3d86cd82b2f58a13365c362d8056c2ffaeae3e33434b5aadf43290e0b",
        "5fdd5c8c984c1768ccc399df022c11ec2ab34c4a7bdf7ca5541cd7c48c789ba1"),
    "alexnet-P3": (
        "46b2301c1d3665e919ce7981d0e474bbc6b7744947ad3d3549512a256706b933",
        "adc3577b60a19c8b6d950f27615c9bc8c6bd5f88e20ab57aa549edf08ee4110d",
        "ff614b358d673007a29c313323dfcd34042c231979295d39af6c469d0a52e0d8"),
    "vgg16-P1": (
        "6fe46f782e0ba4d1b7192bdc9830bd9d103e318ac66b80eacdb621ddd28f14f4",
        "fd627b33d56e3b1d0c7a3f9016df1528882b5924b84fe2522bbe183b19e9f7dd",
        "d6748d8dca9a9234adf382c70e358429d06bcc8ef73e4c09ae39c1d6d704672b"),
    "vgg16-P2": (
        "b2c4f1c29a05d44337cbc63d74cd3dd8f699c59df6296485b4a0e52119586993",
        "0aaa718194965df0318b06f50202007e946bb34010aeb122962a4d9bf578003c",
        "9e018191dbcda822b88cdfd0ee5967576cf727dc45ab7e7aa2ed431f749df94d"),
    "vgg16-P3": (
        "5877462eb6d9d84a5c029cb8bb7d612ae31d761591c421730d5c129d0411166e",
        "b2a22f2e89656d64e27ed4c2d8a657d016a20373d65fa6a3f8fda86530a47757",
        "b484671a834dea138dac9f3aa3c4b92ceb12535252dfc05da52551c02bd29b0a"),
    "vgg16-P4": (
        "2b197dea5c32ede93beafb84a88cf2ea5d43e44f1147e31655a54207bccf35fe",
        "7a86f42903ef9eb00e3b7796ff80ff502f08b5d5b9492332bf540266df2ee300",
        "52c4468ddac482fac7f2226fc7726a66e38baadaceeba4fd009fe7884ec94352"),
    "vgg16-P5": (
        "a788d11a82814ad43db5d78ae34eef2c55191cb28f307ca0fc3a47934bd0fa55",
        "101160d7a64e6b300c8e96f8cdb7f51c1121083c0d5b24994b39199eea975e05",
        "718d1702512389439ec445be51075be5ed4239d8b43af647d43088c579e91f3f"),
    "resnet18-P1": (
        "231ef10509dd1d72e7c90709d8df492898b78bc8a82f25c5edd4e7f53b868579",
        "e4241b9b2b5d7c37289f1f8c408310327a949943f9f9b920e467e3597a4a9eb6",
        "8c4cd7538862f881e9c98fd7a7c3dec32856a0cf9847af98ecfca5153f642440"),
}, 1: {
    "alexnet-P1": (
        "79dee0c3e04d714bca4cf291b0c0d2daca63680d88d7c3f2d4c517aeae839032",
        "b4bfb2133997093b74225f0c54fc7c3c7dc241c2b38525650fec4a7ae70d5cb4",
        "29901de6fcd06c4efabdebd0fbc2ae141cfdff40716e3016854e3941cc092911"),
    "alexnet-P2": (
        "77cb5cbc3283ea51ea92902fe60614379b7690f118b8bd48aa879d6601edc1f8",
        "0c35b0025cb8501323f39fc2f8c4f0225acb725dd917bc159d954830a4d50bab",
        "9b65c1796a23e756cf18192975a29885455ff3cc4094e1ecc2bd6f0a535d9c2d"),
    "alexnet-P3": (
        "7e15aee8b25cbf7930641b8dd358ad8cd28279b9e10e2ce0d88db8fdc9790c5b",
        "e56243950480a42c40d5927afe6fc4b2e1868fac2f28efcf4ea0c54de931d754",
        "8bed71ff40fb3e08f999663f16ddef2155b114da7b9c9ca1050bb88fdaa7aede"),
    "resnet18-P1": (
        "d645a36e8a0cd40106ac4e26cd9d7024cf5ac6117e8dc3ed9ecf3a3f4970725a",
        "06f4c26c65c66312ad1b26e59f37410157532a23237af502ab4d694118e0ce26",
        "6322bbd4c803050826abb96dd55e580dc36a168025d799d3f7eeccddddceb6d3"),
}, 2: {
    "alexnet-P1": (
        "a52528a05ed85a0e1afdc920f81b83c3cdf22c7ec024d27742bcb4949ae22deb",
        "530dcd21a92f6739c7b98d7a40668fed6a1ae89a3bd7417ba6bfc6ce11512d57",
        "4fddb01f33fbf83b318ab2171aec8d76658c43eaa1a4007722ac866b432e17bb"),
    "alexnet-P2": (
        "d76471b0ffcde688dac1424db33d0bb82fe3428e256e8538455086d00b688d79",
        "7a9b2e635a0d2d04429235bfa6792084613d90ca8659dbb5f8da7fcb11700d28",
        "90a4d9eb2635c217a7e12e1d07eb28e5126f6c7142c3e1376230de53de443f1e"),
    "alexnet-P3": (
        "8b58437e5b9ff70b9f0ebfbd126418a12aee11bcd7153a548c56ea8f09d4ff56",
        "3ff7c950e062954d7308d5b3194f894554263f86ec40a3dfe8bd01b157402b13",
        "f85709f95e28af78d2ff1251f01b83eacd57fc168363c422055a96a3cd915f5f"),
    "resnet18-P1": (
        "24e18371cb118253328ab1e643aa5da49df42aa112b645c5b63dd3a2d573febc",
        "04ce3dd44d86d65fd5b51870ddffae442ae1d70b7206c5f5e4fea43fc7862d41",
        "b6bef6888005964e8193224733adf72e5e92b3fc9ad798a2da248338d88ba596"),
}, 8: {
    "alexnet-P1": (
        "25caca359f44bb5637138cfa213224c4c8f243a71a6945a5976eeb63b056850d",
        "0d737cd05b45c1e77939867176705767fbc3237a70d3d55d8064b9776222ad5e",
        "ae21ddaf7cb3ca16c1cf11fce56166c4c3a611aa0a65e5c8b58fbf2cc6398702"),
    "alexnet-P2": (
        "303092dc260ef9d5865804d6e4f290a7a7eda45aaa05a81bf00ee443cf2c3bfc",
        "93167c246dc1e31207f2efcae2f53f74e77c83ade21220267e800602a0f60c24",
        "bc0b4bafe002ca540bca1c4f5b75748a1571e8fa959c7aa89c6070117962dd85"),
    "alexnet-P3": (
        "9fad81727bf14f84a2501634a3372eb74434a79e54aa52f03376463841648377",
        "4baf52aa9af221792176ef8ec69081d284c4c154c1e4bb74d97164888b72ab20",
        "7c4f18195076958dd55a10d5091cde24b399231a5859b53b837a426dfea9673e"),
    "vgg16-P1": (
        "819f1e7ca56ef761f88d56ef02e774d572e2499632bd19381906e44c6b535814",
        "8ee884bb092dd6d174b48f80cfdc00990231fcad11c65b0a253eb2e10252bfe5",
        "ecf6e24feb60f6dddea50376760e68d70d72085cbc57cae845879c967f21e57f"),
    "resnet18-P1": (
        "40ab1875b4429b00e05cf8f289a1ec06e28d16362220468f12a35c82b5709df1",
        "4364f4d578cb5b754252c52ea681fca4ad47541a1f85a577a5de82383dcce926",
        "f6742b1bce63b3f9452b2c94c329eee942fdc8a1e80cc58106468695e999ac8f"),
}}


def run_one(name: str, vector: str, n: int, outdir: Path) -> dict:
    """Run one combination at precision n in a child process; its reports
    go to outdir."""
    argv = [sys.executable, "-m", "pimsim", "--preset", name,
            "--parallelism", vector, *ARGS, "--precision", str(n),
            "--output", str(outdir)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    log = outdir.parent / f"{outdir.name}.log"
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    passed = code == 0 and "functional: PASS" in log.read_text()
    digests = tuple(
        hashlib.sha256((outdir / report).read_bytes()).hexdigest()
        if (outdir / report).is_file() else None for report in REPORT_NAMES)
    return {"wall_s": round(wall, 2),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
            "minflt": usage.ru_minflt,
            "exit": code,
            "passed": passed,
            "digests": list(digests),
            "digests_match": digests == DIGESTS[n].get(f"{name}-{vector}")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("result", help="JSON file to write the results to")
    parser.add_argument("--precisions", type=int, nargs="+", default=[4],
                        choices=sorted(DIGESTS), metavar="N",
                        help="precisions to run, of %(choices)s "
                             "(default: 4)")
    parser.add_argument("--only", action="append", metavar="NAME-P",
                        help="run only this pinned combination; repeatable")
    args = parser.parse_args(argv)
    for combo in args.only or ():
        unpinned = [n for n in args.precisions if combo not in DIGESTS[n]]
        if unpinned:
            parser.exit(2, f"full_size.py: error: {combo} is not pinned at "
                           f"n = {', '.join(map(str, unpinned))}\n")
    keys = [(name, vector, n) for n in args.precisions
            for name, vectors in PARALLELISM.items() for vector in vectors
            if f"{name}-{vector}" in DIGESTS[n]
            and (args.only is None or f"{name}-{vector}" in args.only)]
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, vector, n in keys:
            key = f"{name}-{vector}-n{n}"
            res = run_one(name, vector, n, Path(scratch) / key)
            results[key] = res
            ok = res["passed"] and res["digests_match"]
            print(f"{key:15} {'ok ' if ok else 'BAD'} {res['wall_s']:8.2f} s "
                  f"{res['maxrss_mb']:7.1f} MB {res['minflt']:9d} minflt",
                  flush=True)
            Path(args.result).write_text(json.dumps(results, indent=2) + "\n")
    bad = [key for key, res in results.items()
           if not (res["passed"] and res["digests_match"])]
    if bad:
        print(f"failed: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
