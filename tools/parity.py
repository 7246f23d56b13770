"""Byte-for-byte parity of the CLI between another git revision and this checkout.

    python tools/parity.py --against HEAD^

Unpacks ``src/`` of the revision with ``git archive`` and runs one fixed
list of CLI calls against it and against this checkout's ``src/``, each
tree in one fresh Python process.  The exit code, stderr and every artifact
of each call must agree byte for byte.  Each mismatch prints one line, and
any mismatch exits 1.

The calls: ``verify`` with the default t grid and with ``--t=-0.3:0.6:0.15``,
and ``analyze``, on every golden spec and on the inline specs below, at 256,
1024 and 4096 samples; ``propagate`` and ``export`` once per spec; and
``counterexample`` at four radii.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SPECS = sorted((ROOT / "tests" / "golden").glob("*_spec.json"))
SAMPLES = (256, 1024, 4096)
RADII = (0.9, 1.6, 2.0, 100.0)
FORMATS = "--format=csv,json,svg"


def _dented_loop() -> list:
    # r = 1 + 0.3 cos 2u: a plane point loop that dents inward (min k < 0)
    u = [2.0 * math.pi * i / 400 for i in range(400)]
    r = [1.0 + 0.3 * math.cos(2.0 * x) for x in u]
    return [[ri * math.cos(x), ri * math.sin(x)] for ri, x in zip(r, u)]


INLINE_SPECS = {
    "plane_circle": {"geometry": "euclidean", "representation": "support_fourier",
                     "coeffs": [[0, 1.0, 0.0]]},
    "plane_wavy": {"geometry": "euclidean", "representation": "support_fourier",
                   "coeffs": [[0, 1.0, 0.0], [2, 0.06, 0.02], [3, 0.03, -0.04], [4, 0.0, 0.015]]},
    "plane_nonconvex": {"geometry": "euclidean", "representation": "support_fourier",
                        "coeffs": [[0, 1.0, 0.0], [2, 0.4, 0.0]]},
    "plane_dented_loop": {"geometry": "euclidean", "representation": "samples",
                          "points": _dented_loop()},
    "sphere_circle": {"geometry": "spherical", "representation": "perturbed_circle",
                      "rho": 0.9, "harmonics": []},
    "sphere_convex": {"geometry": "spherical", "representation": "perturbed_circle",
                      "rho": 0.7, "harmonics": [[3, 0.01, 0.4], [2, 0.03, 1.1]]},
    "tennis_seam": {"geometry": "spherical", "representation": "perturbed_circle",
                    "rho": math.pi / 2, "harmonics": [[2, 0.25, -math.pi / 2]]},
    "hyperbolic_circle": {"geometry": "hyperbolic", "representation": "hyperbolic_circle",
                          "rho": 0.8},
    "rounded_semicircle": {"geometry": "hyperbolic", "representation": "rounded_semicircle",
                           "r": 2.0},
}

# runs in the fresh process of one tree: argv of each call from the JSON file
# named by sys.argv[1], artifacts under call_NNN/, outcomes to outcomes.json
RUNNER = """
import contextlib, io, json, sys
from ovalfront.cli import main
outcomes = []
for i, argv in enumerate(json.load(open(sys.argv[1]))):
    text = io.StringIO()
    with contextlib.redirect_stderr(text), contextlib.redirect_stdout(text):
        try:
            code = main([*argv, "--out", f"call_{i:03d}"])
        except Exception as exc:  # an escaped error is an outcome to compare too
            code = f"{type(exc).__name__}: {exc}"
    outcomes.append([code, text.getvalue()])
json.dump(outcomes, open("outcomes.json", "w"))
"""


def calls(spec_paths) -> list:
    """The argv of every call, without ``--out``."""
    out = []
    for spec in spec_paths:
        for n in SAMPLES:
            base = ["--input", str(spec), "--samples", str(n)]
            out += [["verify", *base], ["verify", *base, "--t=-0.3:0.6:0.15"],
                    ["analyze", *base, FORMATS]]
        out += [["propagate", "--input", str(spec), "--t=-0.1:0.3:0.2", FORMATS],
                ["export", "--input", str(spec), FORMATS]]
    return out + [["counterexample", "--r", str(r), FORMATS] for r in RADII]


def unpack_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_tree(src: Path, work: Path, argv_file: Path) -> list:
    work.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("OVALFRONT_")}
    env["PYTHONPATH"] = str(src)
    subprocess.run([sys.executable, "-c", RUNNER, str(argv_file)], cwd=work, env=env, check=True)
    return json.loads((work / "outcomes.json").read_text())


def compare(argvs, theirs, ours, their_dir: Path, our_dir: Path) -> list:
    """One line per difference in exit code, stderr or artifact bytes."""
    lines = []
    for i, (argv, (their_code, their_err), (our_code, our_err)) in enumerate(
            zip(argvs, theirs, ours)):
        label = " ".join(a if not a.startswith("/") else Path(a).name for a in argv)
        if their_code != our_code:
            lines.append(f"{label}: exit {their_code} -> {our_code}")
        if their_err != our_err:
            lines.append(f"{label}: stderr {their_err!r} -> {our_err!r}")
        a, b = their_dir / f"call_{i:03d}", our_dir / f"call_{i:03d}"
        names = {p.name for d in (a, b) if d.is_dir() for p in d.iterdir()}
        for name in sorted(names):
            if not (a / name).exists() or not (b / name).exists():
                side = "only at the revision" if (a / name).exists() else "only here"
                lines.append(f"{label}: {name} {side}")
            elif (a / name).read_bytes() != (b / name).read_bytes():
                lines.append(f"{label}: {name} differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        specs = list(GOLDEN_SPECS)
        for name, doc in INLINE_SPECS.items():
            specs.append(tmp / f"{name}.json")
            specs[-1].write_text(json.dumps(doc))
        argvs = calls(specs)
        argv_file = tmp / "calls.json"
        argv_file.write_text(json.dumps(argvs))
        unpack_src(args.against, tmp / "rev")
        theirs = run_tree(tmp / "rev" / "src", tmp / "rev_out", argv_file)
        ours = run_tree(ROOT / "src", tmp / "here_out", argv_file)
        lines = compare(argvs, theirs, ours, tmp / "rev_out", tmp / "here_out")
    for line in lines:
        print(line)
    print(f"{len(argvs)} calls against {args.against}: {len(lines)} mismatches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
