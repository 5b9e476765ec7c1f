"""Record or check digests of the CLI's --json analyze, iso, hom and census
output.

Usage: python scripts/cli_golden.py (--write | --check)

For every 10th structure of the standard corpus and for its as_table form,
runs `pglab --json analyze --subgroups --normal --congruences --simplicity`
in process, and `pglab --json iso` from the structure to its table form;
then `pglab --json hom --enumerate` on every 200th same-arity corpus pair
with |Q|^|P| <= 10^4 (acceptance check C9's pairs, in corpus order); then
`pglab --json census` on the derived cells of orders 4, 6, 8, 9, 10, 11 at
arities 3-5 and on the exhaustive cell of order 2, arity 3.  Each run's sha256 of (exit code, stdout, stderr) is recorded.  --write
stores the commands and the digests in tests/data/cli_golden.json; --check
compares against that file and exits 1 if the commands differ or naming
every run whose output changed.  PGLAB_* cap variables are ignored, so the
digests hold the default caps' answers.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from pglab.cli import main as pglab_main
from pglab.corpus import standard_corpus
from pglab.polyadic import as_table
from pglab.serialize import polyadic_to_doc

ANALYZE = ["--json", "analyze", "--subgroups", "--normal", "--congruences", "--simplicity"]
ISO = ["--json", "iso"]
HOM = ["--json", "hom", "--enumerate"]
CENSUS = ["--json", "census"]
CENSUS_CELLS = [
    (order, arity, "derived") for order in (4, 6, 8, 9, 10, 11) for arity in (3, 4, 5)
] + [(2, 3, "exhaustive")]
STRIDE = 10
HOM_STRIDE = 200
HOM_MAPS = 10_000
GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "data" / "cli_golden.json"


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pglab_main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _write(path: str, p) -> None:
    Path(path).write_text(json.dumps(polyadic_to_doc(p)))


def digests() -> dict[str, str]:
    """Run name → digest, for the sampled corpus structures and their
    tables, then for the sampled hom pairs, then for the census cells."""
    for key in [k for k in os.environ if k.startswith("PGLAB_")]:
        del os.environ[key]
    found = {}
    corpus = standard_corpus()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the document paths are relative, so no message names tmp
        try:
            for i, p in enumerate(corpus[::STRIDE]):
                table = as_table(p)
                for form, q in (("derived", p), ("table", table)):
                    _write("structure.json", q)
                    found[f"analyze/{i * STRIDE}/{form}"] = _digest(ANALYZE + ["structure.json"])
                _write("table.json", table)
                found[f"iso/{i * STRIDE}"] = _digest(
                    ISO + ["--from", "structure.json", "--to", "table.json"]
                )
            pairs = [
                (i, j)
                for i, p in enumerate(corpus)
                for j, q in enumerate(corpus)
                if p.arity == q.arity and q.order**p.order <= HOM_MAPS
            ]
            for i, j in pairs[::HOM_STRIDE]:
                _write("source.json", corpus[i])
                _write("target.json", corpus[j])
                found[f"hom/{i}/{j}"] = _digest(
                    HOM + ["--from", "source.json", "--to", "target.json"]
                )
        finally:
            os.chdir(cwd)
    for order, arity, mode in CENSUS_CELLS:
        argv = CENSUS + ["--order", str(order), "--arity", str(arity), "--mode", mode]
        found[f"census/{order}/{arity}/{mode}"] = _digest(argv)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    commands = [
        ["pglab"] + ANALYZE + ["<structure>"],
        ["pglab"] + ISO + ["--from", "<structure>", "--to", "<its table>"],
        ["pglab"] + HOM + ["--from", "<source>", "--to", "<target>"],
        ["pglab"] + CENSUS + ["--order", "<order>", "--arity", "<arity>", "--mode", "<mode>"],
    ]
    if args.check:
        golden = json.loads(GOLDEN.read_text())
        if golden["commands"] != commands:
            print(f"golden digests are of {golden['commands']}, not of {commands}")
            return 1
    found = digests()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        doc = {"commands": commands, "digests": found}
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(found)} digests to {GOLDEN}")
        return 0
    expected = golden["digests"]
    changed = [k for k in sorted(set(found) | set(expected)) if found.get(k) != expected.get(k)]
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(found) - len(changed)} of {len(expected)} runs match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
