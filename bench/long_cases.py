"""One-off reference times of the cases too long for the steady runs.

Run from the repository root:

    python3 bench/long_cases.py

Each case runs once in its own process and prints its wall time and
peak RSS; the last line is a JSON object keyed by case.  The cases are
the degree-3 braid relation of Sym(3)'s group-algebra braiding at n=4
(6^7 = 279936 dims) and of Z5's at n=4 (5^7 = 78125 dims), the
``nshelf 4,2`` census, and `tensor.invert` of a random permutation of
6^5 = 7776 basis vectors.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402

CASES = ["verify-S3-n4", "verify-Z5-n4", "enumerate-nshelf-4-2", "invert-7776"]
WORKDIR = ".bench_work"


def run_case(case):
    sys.path.insert(0, os.path.abspath("src"))
    from braidforge import cli, serialization, tensor

    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, f"{case}-{os.getpid()}.json")
    try:
        if case.startswith("verify"):
            group = inputs.sym3() if "S3" in case else inputs.cyclic(5)
            doc = inputs.operator_doc(inputs.group_braiding(group, 4), group.size, 4)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = ["verify", "nybe-right", path]
        elif case == "enumerate-nshelf-4-2":
            argv = ["enumerate", "--m", "4", "--n", "2", "--filter", "nshelf"]
        else:
            perm = list(range(6**5))
            random.Random(0).shuffle(perm)
            op = serialization.from_document(inputs.operator_doc(perm, 6, 5))
            start = time.perf_counter()
            tensor.invert(op)
            return time.perf_counter() - start
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{case}: exit {code}")
        return time.perf_counter() - start
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        seconds = run_case(sys.argv[2])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"seconds": seconds, "peak_rss_mb": rss}))
        return
    out = {}
    for case in CASES:
        proc = subprocess.run([sys.executable, __file__, "--case", case], capture_output=True, text=True, check=True)
        out[case] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{case}: {out[case]['seconds']:.2f} s, {out[case]['peak_rss_mb']:.0f} MB", file=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
