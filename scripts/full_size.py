#!/usr/bin/env python3
"""Run every preset and parallelism vector functionally at full size.

Example:
    python3 scripts/full_size.py full_size.json

Each combination runs `python -m pimsim --preset NAME --parallelism P
--mode functional --rows 4096 --cols 32768` at n = 4, in a child process
of its own that imports pimsim from this checkout. The wall time, the
child's peak RSS (ru_maxrss) and its minor page faults (ru_minflt) go to
the JSON file named on the command line. A combination passes when the
child exits 0 with an oracle PASS and the sha256 of its report.json,
report.txt and plan.txt equal DIGESTS. The exit status is 1 when any
combination fails.

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

from pimsim.presets import PARALLELISM

REPORTS = ("report.json", "report.txt", "plan.txt")
ARGS = ("--mode", "functional", "--rows", "4096", "--cols", "32768",
        "--precision", "4")

# sha256 of report.json, report.txt and plan.txt per combination, pinned
# from the first run that passed
DIGESTS = {
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
}


def run_one(name: str, vector: str, outdir: Path) -> dict:
    """Run one combination in a child process; its reports go to outdir."""
    argv = [sys.executable, "-m", "pimsim", "--preset", name,
            "--parallelism", vector, *ARGS, "--output", str(outdir)]
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
        if (outdir / report).is_file() else None for report in REPORTS)
    key = f"{name}-{vector}"
    return {"wall_s": round(wall, 2),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
            "minflt": usage.ru_minflt,
            "exit": code,
            "passed": passed,
            "digests": list(digests),
            "digests_match": digests == DIGESTS.get(key)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("result", help="JSON file to write the results to")
    args = parser.parse_args()
    keys = [(name, vector) for name, vectors in PARALLELISM.items()
            for vector in vectors]
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, vector in keys:
            key = f"{name}-{vector}"
            res = run_one(name, vector, Path(scratch) / key)
            results[key] = res
            ok = res["passed"] and res["digests_match"]
            print(f"{key:12} {'ok ' if ok else 'BAD'} {res['wall_s']:8.2f} s "
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
