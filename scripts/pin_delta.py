#!/usr/bin/env python3
"""The rebase table: one markdown row per pinned value that moved.

    python3 scripts/pin_delta.py [REV]

Compares every pin file (`BENCH_*.json`, `*.golden.*`) that differs
between REV (default HEAD) and the working tree, value by value, and
prints `| pin | cell | field | old → new | Δ |` rows; nothing when no pin
moved. Run it after re-pinning with `EBS_BLESS=1` (EXPERIMENTS.md,
"Rebasing"). A cell is a `label: ` line (a digest cell, a chaos
schedule) with its `[shard i]` lines, or a BENCH experiment `id`. A
field is a `key=value` or a JSON `"key": value`, qualified by the keys
of enclosing objects; a line with neither is its own field. Sub-hashes
(`*hash`) print as `changed`. Δ is the relative change of the first
number that moved in the value. Doctests: `python3 -m doctest` on this file.
"""

import fnmatch
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = ("BENCH_*.json", "*.golden.*")
LABEL = re.compile(r'([A-Za-z][^:"=\[{]*): ')
SHARD = re.compile(r"(\[[^\]]+\]) ")
STR = r'"(?:[^"\\]|\\.)*"'
TOKEN = re.compile(
    rf'"((?:[^"\\]|\\.)+)":\s*({STR}|\[[^\[\]{{}}]*\]|[^\s,{{}}\[\]]+|[{{\[])'
    r"|([A-Za-z_][\w.]*)=(\S+)|([{}\[\]])"
)
NUM = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def fields(text):
    """Map (cell, field) -> value over one pin file, in file order.

    >>> fields('clean Solar: events=12/12 chash=00ff\\nfleet: [shard 1] ios=3\\n[fleet] windows=4')
    ... # doctest: +NORMALIZE_WHITESPACE
    {('clean Solar', 'events'): '12/12', ('clean Solar', 'chash'): '00ff',
     ('fleet [shard 1]', 'ios'): '3', ('fleet [fleet]', 'windows'): '4'}
    >>> fields('{"id": "fig14", "metrics": {"a_iops": 1.5, "b": null}, "notes": ["x: \\\\"1\\\\""]}')
    {('fig14', 'a_iops'): '1.5', ('fig14', 'b'): 'null', ('fig14', 'notes'): '["x: \\\\"1\\\\""]'}
    >>> fields('s seed 3: {"seed":3,"completed":5,"blk":{"completed":2},"violations":[]}\\n{\\n  "net/lat": {"count": 8}\\n}')
    ... # doctest: +NORMALIZE_WHITESPACE
    {('s seed 3', 'seed'): '3', ('s seed 3', 'completed'): '5', ('s seed 3', 'blk.completed'): '2',
     ('s seed 3', 'violations'): '[]', ('s seed 3', 'net/lat.count'): '8'}
    >>> fields('c 258 0 0 0x02\\n  { "rule": "a" },\\n  { "rule": "b" }')
    {('', 'line 1'): 'c 258 0 0 0x02', ('', 'rule'): '"a"', ('', 'rule#2'): '"b"'}
    """
    out, top = {}, ""
    for n, line in enumerate(text.split("\n"), 1):
        m = LABEL.match(line)
        if m:
            top, line = m[1], line[m.end():]
        cell, m = top, SHARD.match(line)
        if m:
            cell, line = f"{top} {m[1]}", line[m.end():]
        tokens, path = TOKEN.findall(line), []
        for key, val, k, v, bracket in tokens:
            key, val = key or k, val or v
            if bracket in ("}", "]"):
                path = path[:-1]
            elif bracket or val in ("{", "["):
                # `metrics` is the BENCH schema's container: it names nothing.
                path.append("" if bracket or key == "metrics" else key)
            elif key == "id":
                cell = top = val.strip('"')
            else:
                name = base = ".".join(p for p in path + [key] if p)
                i = 1
                while (cell, name) in out:
                    i += 1
                    name = f"{base}#{i}"
                out[(cell, name)] = val
        if not tokens and line.strip(" {}[],"):
            out[(cell, f"line {n}")] = line
    return out


def delta(old, new):
    """Relative change of the first number that moved.

    >>> delta('148795/148806', '145848/145848'), delta('138039.7752', '138042.5408')
    ('-1.98 %', '+0.002 %')
    >>> delta('817.442', '10028.1'), delta('0', '3'), delta('"a"', '"b"')
    ('+1127 %', '+3', '')
    """
    for x, y in zip(NUM.findall(old), NUM.findall(new)):
        if x != y:
            x, y = float(x), float(y)
            if not x:
                return f"{y:+g}"
            d = (y - x) / abs(x) * 100
            return f"{d:+.3g} %" if abs(d) < 100 else f"{d:+.0f} %"
    return ""


def rows(pin, old, new):
    """One row per moved, added or removed value; whole cells once.

    >>> print(*rows('d.golden.txt', 'a: x=1 jhash=0a z=0\\nb: x=2', 'a: x=2 jhash=0b y=1\\nc: x=2'), sep='\\n')
    | `d.golden.txt` | a | `x` | 1 → 2 | +100 % |
    | `d.golden.txt` | a | `jhash` | changed | |
    | `d.golden.txt` | a | `y` | — → 1 | added |
    | `d.golden.txt` | c | | — | added |
    | `d.golden.txt` | a | `z` | 0 → — | removed |
    | `d.golden.txt` | b | | — | removed |
    """
    a, b = fields(old), fields(new)
    cells_a, cells_b, seen = {c for c, _ in a}, {c for c, _ in b}, set()
    for cell, field in [*b, *(k for k in a if k not in b)]:
        was, now = a.get((cell, field)), b.get((cell, field))
        if (cell in cells_a) != (cell in cells_b):
            if cell not in seen:
                seen.add(cell)
                yield f"| `{pin}` | {cell} | | — | {'added' if now else 'removed'} |"
        elif was is None or now is None:
            how = "added" if was is None else "removed"
            yield f"| `{pin}` | {cell} | `{field}` | {was or '—'} → {now or '—'} | {how} |"
        elif was != now:
            moved = "changed |" if field.endswith("hash") else f"{was} → {now} | {delta(was, now)}"
            yield f"| `{pin}` | {cell} | `{field}` | {moved} |"


def main(argv):
    rev = argv[1] if len(argv) > 1 else "HEAD"

    def git(*args, check=True):
        return subprocess.run(
            ["git", "-C", REPO, *args], capture_output=True, text=True, check=check
        ).stdout

    header = True
    for path in git("diff", "--name-only", rev, "--").split("\n"):
        if not any(fnmatch.fnmatch(os.path.basename(path), p) for p in PINS):
            continue
        old = git("show", f"{rev}:{path}", check=False)
        full = os.path.join(REPO, path)
        new = open(full, encoding="utf-8").read() if os.path.exists(full) else ""
        for row in rows(os.path.basename(path), old, new):
            if header:
                print("| pin | cell | field | old → new | Δ |\n|---|---|---|---:|---:|")
                header = False
            print(row)


if __name__ == "__main__":
    main(sys.argv)
