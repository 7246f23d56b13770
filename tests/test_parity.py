"""tools/parity.py: the call list, and that its comparison reports every kind of difference."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_call_list_covers_every_spec_and_command():
    specs = parity.GOLDEN_SPECS + [Path(f"{name}.json") for name in parity.INLINE_SPECS]
    argvs = parity.calls(specs)
    # per spec: two verify runs and analyze at 3 sample counts, then propagate and export
    assert len(argvs) == 11 * len(specs) + len(parity.RADII) == 169
    assert {argv[0] for argv in argvs} == {"verify", "analyze", "propagate", "export",
                                           "counterexample"}


def _call_dir(root, files):
    call = root / "call_000"
    call.mkdir(parents=True)
    for name, data in files.items():
        (call / name).write_bytes(data)
    return root


def test_compare_reports_each_difference_once(tmp_path):
    argvs = [["verify", "--input", "/specs/oval.json"]]
    theirs = _call_dir(tmp_path / "a", {"same.json": b"1", "changed.csv": b"1", "gone.svg": b""})
    ours = _call_dir(tmp_path / "b", {"same.json": b"1", "changed.csv": b"2", "new.svg": b""})
    assert parity.compare(argvs, [[0, ""]], [[0, ""]], theirs, theirs) == []
    lines = parity.compare(argvs, [[0, ""]], [[1, "error: x\n"]], theirs, ours)
    assert lines == [
        "verify --input oval.json: exit 0 -> 1",
        "verify --input oval.json: stderr '' -> 'error: x\\n'",
        "verify --input oval.json: changed.csv differs",
        "verify --input oval.json: gone.svg only at the revision",
        "verify --input oval.json: new.svg only here",
    ]
