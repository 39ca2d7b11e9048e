#!/usr/bin/env python3
"""List exported values that nothing outside their own module uses.

Every top-level `val` of a `lib/*/*.mli` counts as used when some other
source file under lib, bin, bench, perfbench, examples or test refers to
it, either as `Module.name` or as the bare `name` in a file that opens
the module: `open Module`, `let open Module in`, or a local open
`Module.(`, `Module.[` or `Module.{`. A file that passes the module to a
functor (`Hashtbl.Make (Module)`) counts as using all of its values, since
the functor's signature is not known here. Comments are ignored. Prints the unused ones as a JSON list and exits 1
when the list is non-empty.

Run from the repository root: python3 .github/scripts/dead_exports.py
"""

import json
import pathlib
import re
import sys

DIRS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
VAL = re.compile(r"^val\s+([a-z_][A-Za-z0-9_']*)", re.M)


def strip_comments(src):
    """Drop OCaml comments (nested), keeping string literals intact."""
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            if not depth:
                out.append(src[i : j + 1])
            i = j + 1
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def module_of(path):
    return path.stem[:1].upper() + path.stem[1:]


def main():
    root = pathlib.Path(".")
    sources = {
        p: strip_comments(p.read_text(encoding="utf-8"))
        for d in DIRS
        for p in sorted((root / d).rglob("*.ml*"))
        if p.suffix in (".ml", ".mli") and "_build" not in p.parts
    }
    dead = []
    for mli in sorted(root.glob("lib/*/*.mli")):
        mod = module_of(mli)
        own = {mli, mli.with_suffix(".ml")}
        opens = re.compile(
            r"\bopen\s+" + mod + r"\b|\b" + mod + r"\.[([{]")
        applied = re.compile(r"[\w.]\s*\(\s*" + mod + r"\s*\)")
        others = [(src, bool(opens.search(src)))
                  for p, src in sources.items() if p not in own]
        if any(applied.search(src) for src, _ in others):
            continue
        for name in VAL.findall(sources[mli]):
            qualified = re.compile(r"\b" + mod + r"\." + re.escape(name) + r"(?![\w'])")
            bare = re.compile(r"(?<![\w'.])" + re.escape(name) + r"(?![\w'])")
            if not any(qualified.search(src) or (opened and bare.search(src))
                       for src, opened in others):
                dead.append(f"{mod}.{name}")
    print(json.dumps(dead, indent=1))
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
