#!/usr/bin/env python
"""Generate docs/api.md from the package's docstrings.

Offline-friendly substitute for a Sphinx build: walks every public module,
class and function of :mod:`repro` and emits a markdown reference with
signatures and first-paragraph summaries.

Usage:  python scripts/generate_api_docs.py [output-path]
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import repro

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("docs/api.md")


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return ""
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    try:
        # Object defaults print their memory address; drop it so the
        # output is the same on every run.
        return re.sub(r" object at 0x[0-9a-f]+", "",
                      str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def document_module(module) -> list[str]:
    lines = [f"## `{module.__name__}`", "", first_paragraph(module.__doc__), ""]
    members = [(n, o) for n, o in vars(module).items()
               if not n.startswith("_")
               and (inspect.isclass(o) or inspect.isfunction(o))
               and getattr(o, "__module__", None) == module.__name__]
    for name, obj in members:
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
            for mname, member in sorted(vars(obj).items()):
                if mname.startswith("_") or not inspect.isfunction(member):
                    continue
                lines.append(f"* **`{mname}{signature_of(member)}`** — "
                             f"{first_paragraph(member.__doc__)}")
            props = [(pn, p) for pn, p in vars(obj).items()
                     if isinstance(p, property) and not pn.startswith("_")]
            for pname, prop in sorted(props):
                lines.append(f"* *property* **`{pname}`** — "
                             f"{first_paragraph(prop.fget.__doc__ if prop.fget else None)}")
            lines.append("")
        else:
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
    return lines


def main() -> None:
    out = ["# API reference",
           "",
           "Generated by `python scripts/generate_api_docs.py` — do not edit "
           "by hand. Summaries are the first paragraph of each docstring; "
           "see the source for full documentation.",
           ""]
    for module in iter_modules():
        out.extend(document_module(module))
    OUT.write_text("\n".join(out))
    print(f"wrote {OUT} ({len(out)} lines)")


if __name__ == "__main__":
    main()
