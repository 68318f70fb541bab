"""CLI stdout pinned byte for byte.

``tests/data/cli_golden.sha256`` holds one line per command: the sha256 of
its stdout, two spaces, then its arguments.  An argument ending in ``.dfa``
names a file the test writes first: a shipped corpus relation's DFA text, or
one of the three negative controls.  The digests were recorded from the
pair-DFA implementation of meet, join and coarsen that the classifiers
replaced.  After an intended output change, regenerate them with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
import hashlib
import io
import pathlib
import sys
from contextlib import redirect_stdout

from equlat import automatic as am
from equlat.cli import main
from equlat.dfa import dfa_to_text

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.sha256"
CONTROLS = {
    "first_bit_differs": am.first_bit_differs_dfa,
    "shorter_than": am.shorter_than_dfa,
    "shared_feature": am.shared_feature_dfa,
}


def _pairs_of_classes(count: int) -> str:
    """Blocks merging classes 0 and 1, 2 and 3, and so on."""
    return "; ".join(" ".join(map(str, range(i, min(i + 2, count)))) for i in range(0, count, 2))


def golden_commands() -> list[tuple[str, ...]]:
    corpus = am.corpus()
    names = sorted(corpus)
    commands = [("automatic", "builtin", a) for a in names]
    commands += [("automatic", op, f"{a}.dfa", f"{b}.dfa")
                 for op in ("meet", "join") for a in names for b in names]
    commands += [("automatic", "coarsen", f"{a}.dfa", "--blocks",
                  _pairs_of_classes(corpus[a].class_count)) for a in names]
    commands += [("automatic", "minimize", f"{a}.dfa") for a in names]
    commands += [("automatic", "check", f"{c}.dfa") for c in CONTROLS]
    commands.append(("demo", "automatic-meet-growth", "--k", "64"))
    commands.append(("verify", "lattice"))
    return commands


def write_inputs(directory: pathlib.Path) -> None:
    for name, rel in am.corpus().items():
        (directory / f"{name}.dfa").write_text(dfa_to_text(rel.dfa))
    for name, control in CONTROLS.items():
        (directory / f"{name}.dfa").write_text(dfa_to_text(control()))


def stdout_digest(command: tuple[str, ...], directory: pathlib.Path) -> str:
    argv = [str(directory / arg) if arg.endswith(".dfa") else arg for arg in command]
    out = io.StringIO()
    with redirect_stdout(out):
        main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_stdout_matches_recorded_digests(tmp_path):
    write_inputs(tmp_path)
    recorded = [line.split("  ", 1) for line in GOLDEN.read_text().splitlines()]
    commands = golden_commands()
    assert [args for _, args in recorded] == [" ".join(c) for c in commands]
    mismatched = [
        " ".join(c) for c, (digest, _) in zip(commands, recorded)
        if stdout_digest(c, tmp_path) != digest
    ]
    assert mismatched == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(pathlib.Path(scratch))
        lines = [f"{stdout_digest(c, pathlib.Path(scratch))}  {' '.join(c)}"
                 for c in golden_commands()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {len(lines)} digests to {GOLDEN}\n")
