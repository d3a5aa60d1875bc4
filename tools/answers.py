"""Run a fixed set of dampedwave commands, and compare two sets of answers.

    python tools/answers.py run OUT [--src DIR]
    python tools/answers.py diff A B
    python tools/answers.py record OUT REF
    python tools/answers.py check REF OUT

`run` runs each case of CASES as `python -m dampedwave.cli ... --out .` in
its own directory OUT/<case>, and keeps the command's standard output, error
output and exit code there beside the files it writes.  It exits 1 when a
case's exit code is not the one CASES expects, else 0, and exits 2,
running no case, when a case's directory already exists.  `--src` is the
package source to run, by default this checkout's `src/`; pointing it at
another checkout gives that checkout's answers to compare against.

`diff` compares two such directories and prints
- the files found on one side only, and which common files are not byte for
  byte the same;
- every disagreement of kind: exit codes, CSV headers and row counts, and
  any text that is not a number, such as an outcome, an `error` field or a
  classification category;
- per column, the largest difference of a number over the column's largest
  magnitude in that file, and the file where it is largest.  A column is a
  CSV column or a JSON key, named by the file name, so `series.csv:E` covers
  the E column of every case; any other text file is one column.  Numbers
  inside text, such as the `T` of a printed outcome line, count in their
  text's column.

It exits 1 when a file set or a kind differs, else 0, so numbers that moved
alone do not fail it.

`record` writes a compact summary of a `run` directory to the JSON file REF:
every exit code, standard output and error, every `well.json`,
`report.json` and `sweep.csv` value, each `series.csv`'s header, row count
and the first, last and largest-magnitude value of each column, and each
`u0.txt`'s header, node count and norms.  `check` summarizes OUT the same
way and exits 1 when it differs from REF in kind (a file, key, text or
integer, such as an exit code, a row count or a solve count) or when a
float is past its column's tolerance (see `tolerance`), printing each such
difference, else 0.  REFERENCE is the committed summary that CI checks;
re-record it with `run` and `record` when a change moves an answer past its
tolerance on purpose.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXIT_FILE = "exit_code"
REFERENCE = ROOT / "tools" / "answers-reference.json"

# `check`'s tolerances.  Other BLAS kernels moved C*, d and beta by up to
# 2.4e-13 relative, the certificate by 2.4e-14 and series.csv by 4.8e-11 of a
# column's largest |x|, so these sit far above the kernel spread and far below
# any real change.  Integers are compared exactly.
ANSWER_RTOL = 1e-10  # every float without a rule of its own, relative
SERIES_RTOL = 1e-8  # of the reference column's largest |x|
# energy_drift: steps that round differently have moved it by up to 1.9e-5
# relative, and a drift near 1e-13 is rounding alone (it moved by 0.12 under
# other kernels), so past DRIFT_RTOL it may also move by DRIFT_FLOOR * |E0|
DRIFT_RTOL, DRIFT_FLOOR = 1e-4, 1e-12
# C*'s iteration ends on the gradient test, residual < well.GRAD_TOL, or on
# the fixed-point test, whose residual is the rounding floor and whose count
# moves with the rounding: a solve that rounded differently took it 21 -> 22
GRAD_TOL = 1e-10
C_STAR_ITER_MOVE = 2

# (case, argv of the dampedwave CLI, expected exit code); each runs in
# OUT/<case>, in this order
CASES = [
    ("cli-sweep", ["sweep", "--set", "domain.n=63", "--set", "step.dt=0.005",
                   "--set", "run.horizon=10",
                   "--vary", "init.kind=stable,unstable",
                   "--vary", "init.fraction=0.5,0.9", "--vary", "model.omega=0,0.1"],
     0),
    ("readme-sweep-decay", ["sweep", "--set", "step.dt=0.005",
                            "--set", "run.horizon=20", "--vary", "model.p=3,4",
                            "--vary", "model.omega=0,0.1,1", "--vary", "model.mu=0,1"],
     0),
    ("readme-sweep-levels", ["sweep", "--set", "model.omega=0",
                             "--set", "step.dt=0.002", "--set", "run.horizon=30",
                             "--vary", "init.kind=stable,unstable",
                             "--vary", "init.fraction=0.1,0.3,0.5,0.7,0.9"], 0),
    ("rectangle-sweep", ["sweep", "--set", "domain.kind=rectangle",
                         "--set", "domain.extents=1.5,1.0", "--set", "domain.n=23,15",
                         "--set", "run.horizon=5", "--vary", "model.omega=0,0.1",
                         "--vary", "init.kind=stable,unstable"], 0),
    ("run-blowup", ["run", "--set", "init.kind=unstable", "--set", "model.omega=0"],
     0),
    # ends on BLOWUP_NORM_THRESHOLD rather than on a failed step
    ("run-blowup-threshold", ["run", "--set", "init.kind=unstable",
                              "--set", "init.fraction=0.9", "--set", "model.omega=0",
                              "--set", "step.dt=2.5e-4", "--set", "run.horizon=1"], 0),
    ("run-large-p", ["run", "--set", "model.p=3000"], 0),
    ("run-zero", ["run", "--set", "init.kind=zero", "--set", "run.horizon=1"], 0),
    *((f"well-{name}-p{p}", ["well", *domain, "--set", f"model.p={p}"], 0)
      for name, domain in (
          ("interval", []),
          ("rectangle", ["--set", "domain.kind=rectangle",
                         "--set", "domain.extents=1.5,1.0", "--set", "domain.n=47,31"]))
      for p in (3, 4, 6)),
    # C* ends on its fixed-point test: the gradient cannot reach GRAD_TOL here
    ("well-fine-grid", ["well", "--set", "domain.n=2047"], 0),
    ("classify-file", ["classify", "--set", "init.kind=file",
                       "--set", "init.file=../run-blowup/u0.txt"], 0),
    ("sweep-error-row", ["sweep", "--set", "domain.n=31", "--set", "step.dt=0.01",
                         "--set", "run.horizon=0.5",
                         "--vary", "init.kind=stable,unstable",
                         "--vary", "init.fraction=0.5,1.5"], 0),
    # the unstable rows fail their first step in a stack with surviving rows
    ("sweep-first-step-failure", ["sweep", "--set", "model.p=1500",
                                  "--vary", "init.kind=stable,unstable",
                                  "--vary", "model.omega=0,0.1"], 0),
    # exit code and stderr only
    ("run-bad-p", ["run", "--set", "model.p=2.0"], 1),
    ("run-step-ceiling", ["run", "--set", "run.horizon=1e12"], 1),
    ("run-huge-mu", ["run", "--set", "model.mu=1e300"], 1),
    ("well-node-ceiling", ["well", "--set", "domain.n=4096"], 1),
    ("sweep-repeated-vary", ["sweep", "--vary", "model.p=3", "--vary", "model.p=4"],
     1),
    ("sweep-undamped", ["sweep", "--vary", "model.omega=0", "--vary", "model.mu=0"], 1),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b")


def run_cases(out: Path, src: Path) -> int:
    """Run every case into out/<case>; returns how many exited with a code
    other than the expected one."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    failed = 0
    for case, argv, expected in CASES:
        cwd = out / case
        cwd.mkdir(parents=True, exist_ok=False)
        proc = subprocess.run([sys.executable, "-m", "dampedwave.cli", *argv,
                               "--out", "."], cwd=cwd, env=env,
                              capture_output=True, text=True)
        (cwd / "stdout.txt").write_text(proc.stdout)
        (cwd / "stderr.txt").write_text(proc.stderr)
        (cwd / EXIT_FILE).write_text(f"{proc.returncode}\n")
        failed += proc.returncode != expected
        print(f"{case}: exit {proc.returncode}"
              + ("" if proc.returncode == expected else f", expected {expected}"))
    return failed


@dataclass
class Comparison:
    only_a: list[str] = field(default_factory=list)
    only_b: list[str] = field(default_factory=list)
    identical: list[str] = field(default_factory=list)
    differing: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)  # disagreements of kind
    # (file, column) -> [largest |a - b|, largest |x|]
    spans: dict[tuple[str, str], list[float]] = field(default_factory=dict)

    def relative(self) -> dict[str, tuple[float, str]]:
        """Per column, the largest difference over the column's largest
        magnitude in one file, and that file."""
        out: dict[str, tuple[float, str]] = {}
        for (rel, col), (diff, top) in sorted(self.spans.items()):
            r = diff / top if top > 0 else diff
            if col not in out or r > out[col][0]:
                out[col] = (r, rel)
        return out

    @property
    def same_kind(self) -> bool:
        return not (self.only_a or self.only_b or self.kinds)

    def _numbers(self, where: str, col: str, xs: list[float], ys: list[float]
                 ) -> None:
        span = self.spans.setdefault((where, col), [0.0, 0.0])
        for x, y in zip(xs, ys):
            if not (x == y or (math.isnan(x) and math.isnan(y))):
                span[0] = max(span[0], abs(x - y))
            span[1] = max([span[1]] + [abs(z) for z in (x, y) if math.isfinite(z)])

    def _value(self, where: str, col: str, a, b) -> None:
        """One cell or JSON leaf: numbers into the column, the rest must match."""
        if isinstance(a, str) and isinstance(b, str):
            (a_text, a_nums), (b_text, b_nums) = _split(a), _split(b)
            if a_text == b_text:
                self._numbers(where, col, a_nums, b_nums)
                return
        elif type(a) in (int, float) and type(b) in (int, float):
            self._numbers(where, col, [float(a)], [float(b)])
            return
        elif a == b:
            return
        self.kinds.append(f"{where}: {col}: {a!r} != {b!r}")

    def file(self, rel: str, a: Path, b: Path) -> None:
        name = a.name
        if name == EXIT_FILE:
            if a.read_bytes() != b.read_bytes():
                self.kinds.append(f"{rel}: exit code {a.read_text().strip()} "
                                  f"!= {b.read_text().strip()}")
            return
        if a.suffix == ".json":
            flat_a, flat_b = _flatten(json.loads(a.read_text())), _flatten(
                json.loads(b.read_text()))
            for key in sorted(flat_a.keys() ^ flat_b.keys()):
                self.kinds.append(f"{rel}: key {key} on one side only")
            for key in sorted(flat_a.keys() & flat_b.keys()):
                self._value(rel, f"{name}:{key}", flat_a[key], flat_b[key])
            return
        rows_a, rows_b = _rows(a), _rows(b)
        cols = [name]
        if a.suffix == ".csv":
            head_a, head_b = rows_a[:1], rows_b[:1]
            if head_a != head_b:
                self.kinds.append(f"{rel}: header {head_a} != {head_b}")
                return
            cols = [f"{name}:{col}" for head in head_a for col in head]
            rows_a, rows_b = rows_a[1:], rows_b[1:]
        if len(rows_a) != len(rows_b):
            self.kinds.append(f"{rel}: {len(rows_a)} rows != {len(rows_b)}")
            return
        for row_a, row_b in zip(rows_a, rows_b):
            if len(row_a) != len(row_b):
                self.kinds.append(f"{rel}: {row_a} != {row_b}")
                continue
            for col, x, y in zip(cols, row_a, row_b):
                self._value(rel, col, x, y)


def _split(text: str) -> tuple[str, list[float]]:
    """The text with each number replaced by '#', and the numbers."""
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def _flatten(obj, prefix: str = "") -> dict:
    """JSON leaves by dotted path, list items by index: {"a.0.b": leaf}."""
    if not isinstance(obj, (dict, list)):
        return {prefix.rstrip("."): obj}
    out = {}
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        out.update(_flatten(value, f"{prefix}{key}."))
    return out


def _rows(path: Path) -> list[list[str]]:
    """CSV rows; any other text file is one cell per line."""
    with open(path, newline="") as fh:
        if path.suffix == ".csv":
            return list(csv.reader(fh))
        return [[line.rstrip("\n")] for line in fh]


def compare(a: Path, b: Path) -> Comparison:
    files_a = {str(p.relative_to(a)) for p in a.rglob("*") if p.is_file()}
    files_b = {str(p.relative_to(b)) for p in b.rglob("*") if p.is_file()}
    cmp = Comparison(only_a=sorted(files_a - files_b), only_b=sorted(files_b - files_a))
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            cmp.identical.append(rel)
        else:
            cmp.differing.append(rel)
            cmp.file(rel, a / rel, b / rel)
    return cmp


def report(cmp: Comparison) -> str:
    n_common = len(cmp.identical) + len(cmp.differing)
    lines = [f"files: {n_common} on both sides, {len(cmp.only_a)} only in A, "
             f"{len(cmp.only_b)} only in B"]
    lines += [f"  only in A: {rel}" for rel in cmp.only_a]
    lines += [f"  only in B: {rel}" for rel in cmp.only_b]
    lines.append(f"byte-identical: {len(cmp.identical)} of {n_common}")
    lines += [f"  differs: {rel}" for rel in cmp.differing]
    lines.append(f"kinds (exit codes, outcomes, errors, other text): "
                 f"{len(cmp.kinds)} disagreements")
    lines += [f"  {item}" for item in cmp.kinds]
    columns = cmp.relative()
    moved = {col: top for col, top in columns.items() if top[0] != 0}
    lines.append(f"columns whose numbers differ: {len(moved)} of {len(columns)}"
                 " (largest |a - b| over the column's largest |x| in one file)")
    lines += [f"  {col}: {r:.3g} in {rel}" for col, (r, rel) in moved.items()]
    return "\n".join(lines)


def summarize(out: Path) -> dict[str, dict]:
    """The compact summary of a `run` directory: per file, its cells by key."""
    return {str(path.relative_to(out)): _summary(path)
            for path in sorted(out.rglob("*")) if path.is_file()}


def _summary(path: Path) -> dict:
    if path.name == EXIT_FILE:
        return {"code": int(path.read_text())}
    if path.suffix == ".json":
        return _flatten(json.loads(path.read_text()))
    rows = _rows(path)
    if path.suffix == ".csv":
        head, body = rows[0], rows[1:]
        cells = {"header": ",".join(head), "rows": len(body)}
        if path.name != "series.csv":
            cells.update({f"{i}.{col}": x for i, row in enumerate(body)
                          for col, x in zip(head, row)})
            return cells
        for col, column in zip(head, zip(*body)):
            xs = [float(x) for x in column]
            cells.update({f"{col}.first": xs[0], f"{col}.last": xs[-1],
                          f"{col}.peak": max(xs, key=abs)})
        return cells
    if rows and rows[0][0].startswith("# dampedwave-field"):
        xs = [float(x) for (x,) in rows[1:]]
        return {"header": rows[0][0], "nodes": len(xs),
                "max": max(map(abs, xs), default=0.0),
                "l2": math.sqrt(math.fsum(x * x for x in xs))}
    return {str(i): line for i, (line,) in enumerate(rows)}


def tolerance(name: str, key: str, ref: dict) -> tuple[float, float]:
    """(rtol, atol) of the numbers at `key` of a file `name` whose reference
    cells are `ref`: y passes against the reference x when
    |x - y| <= rtol |x| + atol."""
    if name == "series.csv" and "." in key:
        return 0.0, SERIES_RTOL * abs(ref[key.rsplit(".", 1)[0] + ".peak"])
    if key.endswith("energy_drift"):
        return DRIFT_RTOL, DRIFT_FLOOR * abs(ref["E0"])
    return ANSWER_RTOL, 0.0


def _cell(x, y, rtol: float, atol: float) -> str | None:
    """Why the cell y fails against the reference cell x, or None."""
    if isinstance(x, str) and isinstance(y, str):
        (x_text, xs), (y_text, ys) = _split(x), _split(y)
        if x_text != y_text:
            return f"{y!r} != {x!r}"
    elif float in (type(x), type(y)) and {type(x), type(y)} <= {int, float}:
        xs, ys = [float(x)], [float(y)]
    else:  # counts, flags, None: exact
        return None if x == y and type(x) is type(y) else f"{y!r} != {x!r}"
    for a, b in zip(xs, ys):
        if not (a == b or math.isnan(a) and math.isnan(b)
                or abs(a - b) <= rtol * abs(a) + atol):
            return (f"{y!r} is {abs(a - b):.3g} from {x!r}, "
                    f"past {rtol * abs(a) + atol:.3g}")
    return None


def _c_star_stop(ref: dict, out: dict, prefix: str) -> str | None:
    """Why C*'s `iterations` and `residual` under `prefix` fail, or None.

    Where the gradient test ended C* in the reference, it must end there
    again after as many iterations; where the fixed-point test did, the
    count may move by C_STAR_ITER_MOVE, and any finite residual means that
    one of the two tests ended the iteration."""
    it, res = prefix + "iterations", prefix + "residual"
    if ref[res] < GRAD_TOL:
        ok = out[res] < GRAD_TOL and out[it] == ref[it]
    else:
        ok = math.isfinite(out[res]) and abs(out[it] - ref[it]) <= C_STAR_ITER_MOVE
    return None if ok else (f"{it}, {res}: {out[it]}, {out[res]!r} against "
                            f"{ref[it]}, {ref[res]!r}")


def check(ref: dict[str, dict], out: dict[str, dict]) -> list[str]:
    """Every difference of the summary `out` from `ref` in kind or past its
    tolerance."""
    problems = [f"{rel}: only in the reference"
                for rel in sorted(ref.keys() - out.keys())]
    problems += [f"{rel}: not in the reference"
                 for rel in sorted(out.keys() - ref.keys())]
    for rel in sorted(ref.keys() & out.keys()):
        a, b = ref[rel], out[rel]
        problems += [f"{rel}: key {key} on one side only"
                     for key in sorted(a.keys() ^ b.keys())]
        stops = [prefix for prefix in ("", "well.")
                 if {prefix + "iterations", prefix + "residual"} <= a.keys() & b.keys()]
        skip = {prefix + key for prefix in stops for key in ("iterations", "residual")}
        for key in sorted(a.keys() & b.keys() - skip):
            problem = _cell(a[key], b[key], *tolerance(Path(rel).name, key, a))
            if problem:
                problems.append(f"{rel}: {key}: {problem}")
        problems += [f"{rel}: {problem}" for problem in
                     (_c_star_stop(a, b, prefix) for prefix in stops) if problem]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every case into a new directory")
    run.add_argument("out", type=Path)
    run.add_argument("--src", type=Path, default=ROOT / "src",
                     help="package source to run (default: this checkout's src/)")
    diff = sub.add_parser("diff", help="compare two directories that `run` wrote")
    diff.add_argument("a", type=Path)
    diff.add_argument("b", type=Path)
    record = sub.add_parser("record", help="write the summary of a `run` directory")
    record.add_argument("out", type=Path)
    record.add_argument("ref", type=Path)
    chk = sub.add_parser("check", help="check a `run` directory against a summary")
    chk.add_argument("ref", type=Path)
    chk.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        used = [args.out / case for case, _, _ in CASES if (args.out / case).exists()]
        if used:
            print(f"answers: {used[0]} already exists", file=sys.stderr)
            return 2
        return 1 if run_cases(args.out, args.src) else 0
    if args.command == "record":
        args.ref.write_text(json.dumps(summarize(args.out), indent=1, sort_keys=True)
                            + "\n")
        return 0
    if args.command == "check":
        ref = json.loads(args.ref.read_text())
        problems = check(ref, summarize(args.out))
        print("\n".join(problems + [f"check: {len(ref)} files in the reference, "
                                     f"{len(problems)} differences"]))
        return 1 if problems else 0
    cmp = compare(args.a, args.b)
    print(report(cmp))
    return 0 if cmp.same_kind else 1


if __name__ == "__main__":
    sys.exit(main())
