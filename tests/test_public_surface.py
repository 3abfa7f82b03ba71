"""Every public name has a reader beyond the tests.

A name in ``hesscomb.__all__`` must be read somewhere in ``src/`` outside its
own definition and ``__init__.py``, or in ``demos/`` or ``perfbench/``;
otherwise it is API surface that serves no request.
"""

import ast
from pathlib import Path

import hesscomb

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hesscomb"

# Public on purpose with no reader outside the tests:
# - element_to_gkm bridges the rewrite engine to moment-graph arithmetic, the
#   route by which tests check one against the other;
# - graded_quotient_rank is the rank that degree d adds to the class-ring
#   filtration at a regular point, the output the kernel route is measured
#   against.
TEST_ONLY = {"element_to_gkm", "graded_quotient_rank"}


def _reads(path: Path) -> list[tuple[str | None, set[str]]]:
    """Per top-level statement of a module, the name it defines (if any) and
    the names and attributes it reads."""
    out = []
    for node in ast.parse(path.read_text()).body:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        out.append((getattr(node, "name", None), names))
    return out


def test_every_public_name_has_a_reader():
    outside = set()
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        outside.update(*(names for _, names in _reads(path)))
    src = [
        statement
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for statement in _reads(path)
    ]
    unread = [
        name
        for name in hesscomb.__all__
        if name not in outside
        and not any(name in names for defined, names in src if defined != name)
    ]
    assert sorted(unread) == sorted(TEST_ONLY)
