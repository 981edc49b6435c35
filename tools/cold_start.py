#!/usr/bin/env python3
"""Wall time of a cold CLI process, and where its imports spend it.

    python3 tools/cold_start.py

Starts fresh ``python -S`` processes with ``PYTHONPATH`` set to this tree's
``src``: a bare interpreter, ``import upsilon_lab.cli``, and ``python -S -m
upsilon_lab`` once for each subcommand on a small input.  ``-S`` skips
``site``, so a ``.pth`` file in site-packages cannot preload modules and
hide what the package imports.  The commands run in turn, REPEATS rounds
after one round that is not timed, and the tool prints the best and the
median wall time of each in ms.  Then it prints, for each subcommand, the
package modules its process loaded and whether it loaded ``fractions``, from
one ``-X importtime`` run of it, and the TOP slowest entries of one such run
of ``import upsilon_lab.cli``, by cumulative time.

A cold start is timed from cached bytecode, as an installed package runs:
the processes write and read their .pyc files under one temporary directory
(``PYTHONPYCACHEPREFIX``), even where ``PYTHONDONTWRITEBYTECODE`` is set,
so nothing is written under the repository.  The plot's SVG goes there
too, and the directory is removed at the end.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 15
TOP = 12


def commands(work: str) -> list[tuple[str, list[str]]]:
    cli = ["-m", "upsilon_lab"]
    return [
        ("bare interpreter", ["-c", "pass"]),
        ("import upsilon_lab.cli", ["-c", "import upsilon_lab.cli"]),
        ("invariants --torus 3,4", cli + ["invariants", "--torus", "3,4"]),
        ("restore --torus 3,4", cli + ["restore", "--torus", "3,4"]),
        ("family verify --n 1", cli + ["family", "verify", "--n", "1"]),
        ("seifert decide", cli + ["seifert", "decide", "--e0", "-1", "--r", "1/2,1/3,1/5"]),
        ("braid --named t09847", cli + ["braid", "--named", "t09847"]),
        ("census scan sample", cli + ["census", "scan", "sample"]),
        ("plot --torus 3,4", cli + ["plot", "--torus", "3,4", "--what", "gapfn,hull,upsilon",
                                    "--out", os.path.join(work, "t34.svg")]),
    ]


def run(args: list[str], env: dict[str, str]) -> float:
    """Seconds of wall time for one `python -S <args>` process; it must exit 0."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_times(args: list[str], env: dict[str, str]) -> list[tuple[int, int, str]]:
    """(self us, cumulative us, module) of each import one `python -S <args>` process makes."""
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", *args],
                          env=env, check=True, capture_output=True, text=True)
    rows = []
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.append((int(fields[0]), int(fields[1]), fields[2].strip()))
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="upsilon-lab-cold-start-") as work:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"))
        cmds = commands(work)
        for _, args in cmds:  # writes the .pyc files
            run(args, env)
        times: list[list[float]] = [[] for _ in cmds]
        for _ in range(REPEATS):
            for (_, args), samples in zip(cmds, times):
                samples.append(run(args, env))
        loaded = {label: [name for _, _, name in import_times(args, env)]
                  for label, args in cmds if args[0] == "-m"}
        rows = import_times(["-c", "import upsilon_lab.cli"], env)
    print(f"{sys.executable} -S, {REPEATS} processes each")
    print(f"{'command':<28} {'best ms':>8} {'median ms':>10}")
    for (label, _), samples in zip(cmds, times):
        print(f"{label:<28} {min(samples) * 1e3:>8.1f} {statistics.median(samples) * 1e3:>10.1f}")
    print("\nmodules each subcommand's process loads (-X importtime)")
    print(f"{'command':<28} {'fractions':>9}  upsilon_lab modules")
    for label, names in loaded.items():
        own = sorted(name.removeprefix("upsilon_lab.") for name in names
                     if name.startswith("upsilon_lab."))
        print(f"{label:<28} {'yes' if 'fractions' in names else 'no':>9}  {' '.join(own)}")
    print(f"\n-X importtime, import upsilon_lab.cli: top {TOP} by cumulative time")
    print(f"{'self ms':>8} {'cumul ms':>9}  module")
    for own, cumulative, name in sorted(rows, key=lambda r: -r[1])[:TOP]:
        print(f"{own / 1e3:>8.1f} {cumulative / 1e3:>9.1f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
