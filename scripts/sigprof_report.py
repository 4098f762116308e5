#!/usr/bin/env python3
"""Symbolise and aggregate the sample files scripts/sigprof.c writes.

    python3 scripts/sigprof_report.py FILE... [--top N] [--focus NAME] [--lines NAME]

Each FILE is one process's `# maps` section (its /proc/self/maps at exit)
and `# samples` section (one line per sample: hex program counters,
interrupted instruction first, then return addresses). Files from many
processes of one binary (a harness's per-trial children) are merged.

Views, each as a share of all samples:
  self       the innermost function of each sample
  inclusive  every function on the stack, counted once per sample
  --focus    for samples whose stack holds a function whose name contains
             NAME: what runs inside its outermost occurrence (inclusive),
             and who called it
  --lines    for samples whose innermost program counter lies in a
             function whose name contains NAME (inlined callees
             included): self samples per source line, each the
             innermost line `addr2line` (without -i) gives for that
             counter. This shows which loads of a hot function stall,
             e.g. `--lines PortState::retire` splits its samples
             between the ring's head reads (in VecDeque's source) and
             the first use of the slot it loaded.

Symbolisation. A PIE binary or shared object is mapped at a load bias:
file-relative address = pc - bias, where bias is the start of the
file's offset-0 mapping minus the virtual address of the PT_LOAD segment
that begins at file offset 0 (0 for PIEs as GNU ld and lld lay them out).
The executable mapping cannot stand in for it: linkers leave the text
segment's file offset and virtual address apart, so `pc - start +
offset` of the r-x mapping names the wrong function. Non-PIE executables
(ET_EXEC) are absolute. `addr2line -i` expands inlined frames, so a
sample's stack is the logical call stack, innermost first. Return
addresses are looked up one byte back, inside the call instruction.

System libraries ship without debug info, and for them addr2line names
the nearest exported symbol before the address, even far past that
symbol's end: libc's unexported memmove kernels would show as the
13-byte `__nss_database_lookup`. So for a shared object without line
info, an address is checked against the extents `nm -D -S` gives. Inside
one, it takes that symbol's name; outside all of them it is named
`lib+0xoff`, where 0xoff is the start of the unexported gap it lies in,
so the samples of one unexported routine add up in one row.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys

HASH_RE = re.compile(r"::h[0-9a-f]{16}$")


class Mapping:
    def __init__(self, line):
        fields = line.split(maxsplit=5)
        start, end = fields[0].split("-")
        self.start, self.end = int(start, 16), int(end, 16)
        self.offset = int(fields[2], 16)
        self.path = fields[5].strip() if len(fields) > 5 else ""


def parse(path):
    """(mappings, samples) of one sample file."""
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                section = "maps"
            elif line.startswith("# samples"):
                section = "samples"
            elif section == "maps":
                maps.append(Mapping(line))
            elif section == "samples" and line.strip():
                samples.append([int(pc, 16) for pc in line.split()])
    return maps, samples


def elf_bias_base(path):
    """(is_pie, vaddr of the PT_LOAD at file offset 0) for an ELF64 file."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return None
        e_type = struct.unpack_from("<H", ident, 16)[0]
        e_phoff = struct.unpack_from("<Q", ident, 32)[0]
        e_phentsize, e_phnum = struct.unpack_from("<HH", ident, 54)
        f.seek(e_phoff)
        table = f.read(e_phentsize * e_phnum)
    for i in range(e_phnum):
        p_type, _, p_offset, p_vaddr = struct.unpack_from("<IIQQ", table, i * e_phentsize)
        if p_type == 1 and p_offset == 0:  # PT_LOAD
            return e_type == 3, p_vaddr  # ET_DYN
    return e_type == 3, 0


ELF = {}  # object path -> elf_bias_base(path), or None if unreadable


def file_relative(maps, pc):
    """(object path, file-relative address) for `pc`, or None."""
    for m in maps:
        if m.start <= pc < m.end and m.path.startswith("/"):
            if m.path not in ELF:
                try:
                    ELF[m.path] = elf_bias_base(m.path)
                except OSError:
                    ELF[m.path] = None
            elf = ELF[m.path]
            if elf is None:
                return None
            is_pie, base_vaddr = elf
            if not is_pie:
                return m.path, pc
            zero = [z for z in maps if z.path == m.path and z.offset == 0]
            if not zero:
                return None
            return m.path, pc - (min(z.start for z in zero) - base_vaddr)
    return None


def exported(obj):
    """(starts, symbols, reach) for the defined dynamic symbols of `obj`:
    symbols as sorted (start, end, name), starts their starts, and
    reach[i] the furthest end among symbols[:i + 1]."""
    out = subprocess.run(
        ["nm", "-D", "-S", "--defined-only", obj],
        capture_output=True,
        text=True,
        check=False,
    ).stdout
    syms = []
    for line in out.splitlines():
        f = line.split()
        if len(f) == 4 and int(f[1], 16) > 0:
            start = int(f[0], 16)
            syms.append((start, start + int(f[1], 16), f[3].split("@")[0]))
    syms.sort()
    reach, far = [], 0
    for _, end, _ in syms:
        far = max(far, end)
        reach.append(far)
    return [s for s, _, _ in syms], syms, reach


EXPORTED = {}  # shared object path -> exported(path)


def unsymbolised(obj, where):
    """True when addr2line's name for an address of `obj` is only the
    nearest exported symbol before it: a shared object without line info."""
    return ".so" in obj.rsplit("/", 1)[-1] and where.startswith("??")


def exported_name(obj, addr):
    """`extent_name` of `addr` in shared object `obj`."""
    if obj not in EXPORTED:
        EXPORTED[obj] = exported(obj)
    return extent_name(EXPORTED[obj], obj.rsplit("/", 1)[-1], addr)


def extent_name(table, base, addr):
    """The exported symbol whose extent holds `addr`, else `base+0xoff`
    with 0xoff the start of the unexported gap around `addr`.

    >>> t = ([0x10, 0x40], [(0x10, 0x20, "a"), (0x40, 0x4d, "b")], [0x20, 0x4d])
    >>> [extent_name(t, "libc.so.6", x) for x in (0x18, 0x4c, 0x4d, 0x90, 0x8)]
    ['a', 'b', 'libc.so.6+0x4d', 'libc.so.6+0x4d', 'libc.so.6+0x0']
    """
    starts, syms, reach = table
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0:
        return f"{base}+0x0"
    if reach[i] <= addr:
        return f"{base}+{reach[i]:#x}"
    while syms[i][1] <= addr:
        i -= 1
    return syms[i][2]


def symbolise(addrs_by_obj):
    """{(obj, addr): [function, ...] innermost first} via addr2line -i."""
    names = {}
    for obj, addrs in addrs_by_obj.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
            input="\n".join(f"{a:#x}" for a in addrs),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        base = obj.rsplit("/", 1)[-1]
        tag = f" [{base}]" if ".so" in base else ""
        frames, current = {}, None
        # Per address: its echo ("0x..."), then function / location pairs.
        i = 0
        while i < len(out):
            if out[i].startswith("0x"):
                current = int(out[i], 16)
                frames[current] = []
                i += 1
                continue
            fn = HASH_RE.sub("", out[i])
            if unsymbolised(obj, out[i + 1]):
                fn = exported_name(obj, current)
                frames[current].append(fn if fn.startswith(base + "+") else fn + tag)
            else:
                frames[current].append(f"{base}+{current:#x}" if fn == "??" else fn + tag)
            i += 2
        for a in addrs:
            names[(obj, a)] = frames.get(a) or [f"{base}+{a:#x}"]
    return names


def stacks(paths):
    """Every sample as (function names innermost first, the innermost
    program counter's (object, file-relative address) or None, and that
    counter's own inline frames)."""
    raw = []
    addrs_by_obj = collections.defaultdict(set)
    for path in paths:
        maps, samples = parse(path)
        for sample in samples:
            located = []
            for depth, pc in enumerate(sample):
                loc = file_relative(maps, pc if depth == 0 else pc - 1)
                located.append(loc)
                if loc:
                    addrs_by_obj[loc[0]].add(loc[1])
            raw.append(located)
    names = symbolise(addrs_by_obj)
    out = []
    for located in raw:
        stack = []
        for loc in located:
            stack.extend(names[loc] if loc else ["[unknown]"])
        inner = located[0] if located else None
        out.append((stack, inner, names[inner] if inner else []))
    return out


def source_lines(locs):
    """{(obj, addr): "file:line  function"} via addr2line without -i: the
    innermost inlined frame's own line, not its callers'."""
    by_obj = collections.defaultdict(set)
    for obj, addr in locs:
        by_obj[obj].add(addr)
    lines = {}
    for obj, addrs in by_obj.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", obj],
            input="\n".join(f"{a:#x}" for a in addrs),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        # Exactly one function / location pair per address without -i.
        for a, fn, where in zip(addrs, out[0::2], out[1::2]):
            fn = exported_name(obj, a) if unsymbolised(obj, where) else HASH_RE.sub("", fn)
            where = "/".join(where.split(" ")[0].split("/")[-3:])
            lines[(obj, a)] = f"{where}  {fn}"
    return lines


def table(title, counts, total, top):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.1f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--focus", help="substring of a function name")
    ap.add_argument("--lines", help="substring of a function name")
    args = ap.parse_args()
    located = stacks(args.files)
    samples = [s for s, _, _ in located]
    total = len(samples)
    print(f"{total} samples from {len(args.files)} file(s)")
    if not total:
        return 1
    self_counts = collections.Counter(s[0] for s in samples if s)
    incl = collections.Counter(f for s in samples for f in set(s))
    table("self", self_counts, total, args.top)
    table("inclusive", incl, total, args.top)
    if args.focus:
        inside, callers, hits = collections.Counter(), collections.Counter(), 0
        for s in samples:
            at = [i for i, f in enumerate(s) if args.focus in f]
            if not at:
                continue
            hits += 1
            outer = at[-1]
            inside.update(set(s[:outer]))
            callers[s[outer + 1] if outer + 1 < len(s) else "[root]"] += 1
        print(f"\nfocus '{args.focus}': {hits} samples ({100.0 * hits / total:.1f}%)")
        table("  inside it (inclusive)", inside, total, args.top)
        table("  called from", callers, total, args.top)
    if args.lines:
        hit = [loc for _, loc, inner in located if any(args.lines in f for f in inner)]
        where = source_lines(hit)
        counts = collections.Counter(where[loc] for loc in hit)
        print(f"\nlines '{args.lines}': {len(hit)} self samples ({100.0 * len(hit) / total:.1f}%)")
        table("  per source line", counts, total, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
