"""Each numeric primitive of the package has one owner.

``halfline.quad_bound`` is the only function of ``src/copos`` that takes a
square root (``math.sqrt`` or ``np.sqrt``, however imported), and only
``halfline.root_margin_checked`` calls ``quad_bound``, however imported: a
square-root row compared by hand, ``x - quad_bound(a, b) / k``, has no exact
sign at a tight boundary, so every one takes its value from the checked
primitive.  ``halfline`` is the only module that writes the unit roundoff
``2.0 ** -53`` or the underflow slack ``2.0 ** -1000``; every other module imports
``_U``, ``_UNDERFLOW`` and ``_gamma`` from it.  ``halfline.power_scale`` is
the only function that calls ``math.ldexp`` or ``math.frexp``, however
imported: it owns the power-of-two scale every row is read at.
``halfline`` is the only module that calls ``cubic_disc``, however imported:
the float formula alone has no exact sign near 0 and overflows where the row
does not, so every discriminant row takes its value from
``halfline.cubic_disc_checked``, which rechecks it in Fraction.  Only the two
checked primitives, ``halfline.cubic_disc_checked`` and
``halfline.root_margin_checked``, call ``halfline._exact``, however imported:
every exact recheck of a row's sign is one of theirs.

Within ``criteria``, ``vacuum`` and ``halfline`` only three functions test
finiteness (an ``isfinite``, ``isinf`` or ``isnan`` call, or a comparison
with ``math.inf`` or ``np.inf``): the row rule ``halfline.row_holds`` and the
recheck windows of ``halfline.cubic_disc_checked`` and
``halfline.root_margin_checked``.  Every other
row flag and every other non-finite check goes through them.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "copos").glob("*.py"))

SQRT_OWNER = "halfline.quad_bound"
ROOT_OWNER = "halfline.root_margin_checked"
SCALE_OWNER = "halfline.power_scale"
SCALE_CALLS = {"ldexp", "frexp"}
DISC_OWNER = "halfline"
EXACT_OWNERS = {"halfline.cubic_disc_checked", "halfline.root_margin_checked"}
ROUNDING_OWNER = "halfline"
ROUNDING_EXPONENTS = {53, 1000}
FINITENESS_MODULES = {"criteria", "vacuum", "halfline"}
FINITENESS_OWNERS = {"halfline.row_holds", "halfline.cubic_disc_checked",
                     "halfline.root_margin_checked"}
FINITENESS_CALLS = {"isfinite", "isinf", "isnan"}
NUMERIC_MODULES = {"math", "np", "numpy"}


def _is_sqrt(func: ast.expr, aliases: set[str]) -> bool:
    if isinstance(func, ast.Attribute):
        return (func.attr == "sqrt" and isinstance(func.value, ast.Name)
                and func.value.id in {"math", "np", "numpy"})
    return isinstance(func, ast.Name) and func.id in aliases


def _is_scale_call(node: ast.AST, aliases: set[str]) -> bool:
    # math.ldexp(x, e), math.frexp(x), or either imported from math
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr in SCALE_CALLS and isinstance(func.value, ast.Name)
                and func.value.id == "math")
    return isinstance(func, ast.Name) and func.id in aliases


def _is_call_of(node: ast.AST, name: str, aliases: set[str]) -> bool:
    # name(...), halfline.name(...), or an alias of it: cubic_disc, _exact or quad_bound
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == name
    return isinstance(func, ast.Name) and func.id in aliases | {name}


def _is_finiteness_test(node: ast.AST, aliases: set[str]) -> bool:
    # isfinite(x), math.isinf(x), np.isnan(x), or x < math.inf, np.inf == x
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return (func.attr in FINITENESS_CALLS and isinstance(func.value, ast.Name)
                    and func.value.id in NUMERIC_MODULES)
        return isinstance(func, ast.Name) and func.id in aliases
    if isinstance(node, ast.Compare):
        for operand in (node.left, *node.comparators):
            if isinstance(operand, ast.UnaryOp):  # -math.inf
                operand = operand.operand
            if (isinstance(operand, ast.Attribute) and operand.attr == "inf"
                    and isinstance(operand.value, ast.Name)
                    and operand.value.id in NUMERIC_MODULES):
                return True
            if isinstance(operand, ast.Name) and operand.id in aliases:
                return True
    return False


def _is_rounding_constant(node: ast.AST) -> bool:
    # 2 ** -53 or 2.0 ** -1000, in any spelling of the two numbers
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 2
            and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
            and isinstance(node.right.operand, ast.Constant)
            and node.right.operand.value in ROUNDING_EXPONENTS)


def owner_violations(sources: dict[str, str]) -> list[str]:
    """Square roots outside SQRT_OWNER, quad_bound calls outside ROOT_OWNER, rounding
    constants outside ROUNDING_OWNER, ldexp and frexp calls outside SCALE_OWNER,
    cubic_disc calls outside DISC_OWNER,
    _exact calls outside EXACT_OWNERS, and finiteness tests in FINITENESS_MODULES
    outside FINITENESS_OWNERS."""
    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        # from math import sqrt (as root) binds a name that calls the root directly
        imported = [alias for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module in {"math", "numpy"}
                    for alias in node.names]
        aliases = {alias.asname or alias.name for alias in imported if alias.name == "sqrt"}
        finite_aliases = {alias.asname or alias.name for alias in imported
                          if alias.name in FINITENESS_CALLS | {"inf"}}
        scale_aliases = {alias.asname or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module == "math"
                         for alias in node.names if alias.name in SCALE_CALLS}
        disc_aliases, exact_aliases, root_aliases = (
            {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name == name}
            for name in ("cubic_disc", "_exact", "quad_bound"))

        def visit(node: ast.AST, scope: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{module}.{node.name}"
            if (isinstance(node, ast.Call) and _is_sqrt(node.func, aliases)
                    and scope != SQRT_OWNER):
                out.append(f"{scope}: line {node.lineno}: square root")
            if _is_call_of(node, "quad_bound", root_aliases) and scope != ROOT_OWNER:
                out.append(f"{scope}: line {node.lineno}: unchecked root")
            if _is_rounding_constant(node) and module != ROUNDING_OWNER:
                out.append(f"{scope}: line {node.lineno}: rounding constant")
            if _is_scale_call(node, scale_aliases) and scope != SCALE_OWNER:
                out.append(f"{scope}: line {node.lineno}: power-of-two scale")
            if _is_call_of(node, "cubic_disc", disc_aliases) and module != DISC_OWNER:
                out.append(f"{scope}: line {node.lineno}: unchecked discriminant")
            if _is_call_of(node, "_exact", exact_aliases) and scope not in EXACT_OWNERS:
                out.append(f"{scope}: line {node.lineno}: exact recheck")
            if (module in FINITENESS_MODULES and scope not in FINITENESS_OWNERS
                    and _is_finiteness_test(node, finite_aliases)):
                out.append(f"{scope}: line {node.lineno}: finiteness test")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, module)
    return out


def test_numeric_primitives_have_one_owner():
    assert owner_violations({p.stem: p.read_text(encoding="utf-8") for p in SRC}) == []


def test_owner_rules():
    sources = {"halfline": ("import math\n"
                            "import numpy as np\n"
                            "_U = 2.0 ** -53\n"
                            "def quad_bound(ag):\n"
                            "    return -2.0 * math.sqrt(ag), np.sqrt(ag)\n"
                            "def cubic_bounds(ad):\n"
                            "    return 2.0 * math.sqrt(ad)\n"
                            "def root_margin_checked(x, a, g, k):\n"
                            "    return x - quad_bound(a, g) / k\n"),
               "criteria": ("from .halfline import quad_bound as bound, root_margin_checked\n"
                            "from . import halfline\n"
                            "def thm43(x, a, g, k):\n"
                            "    return (x - bound(a, g) / k, 6.0 * x - halfline.quad_bound(a, g) / 2.0,\n"
                            "            root_margin_checked(x, a, g, k))\n"),
               "oracle": ("from math import sqrt as root\n"
                          "import numpy as np\n"
                          "_UNDERFLOW = 2 ** -1000\n"
                          "_HALF = 2.0 ** -1\n"
                          "def screen(x):\n"
                          "    return np.sqrt(x) + root(x)\n")}
    assert owner_violations(sources) == [
        "halfline.cubic_bounds: line 7: square root",
        "criteria.thm43: line 4: unchecked root",
        "criteria.thm43: line 4: unchecked root",
        "oracle: line 3: rounding constant",
        "oracle.screen: line 6: square root",
        "oracle.screen: line 6: square root",
    ]


def test_finiteness_rules():
    sources = {"halfline": ("import math\n"
                            "import numpy as np\n"
                            "def row_holds(v):\n"
                            "    return 0.0 <= v < math.inf\n"
                            "def root_margin_checked(x):\n"
                            "    return not abs(x) < np.inf\n"
                            "def cubic_nonneg_sufficient(b, lo):\n"
                            "    return b - lo < math.inf and not math.isnan(b)\n"),
               "criteria": ("from math import isfinite as fin, inf\n"
                            "import numpy as np\n"
                            "worst = -inf\n"
                            "def _verdict(v):\n"
                            "    return fin(v) or np.isinf(v) or v == -inf\n"),
               "vacuum": ("import numpy as np\n"
                          "def _report(rows, margin=np.inf):\n"
                          "    return np.isfinite(rows) & (rows > margin)\n"),
               "oracle": ("import math\n"
                          "def screen(w):\n"
                          "    return math.isfinite(w) and w < math.inf\n")}
    assert owner_violations(sources) == [
        "halfline.cubic_nonneg_sufficient: line 8: finiteness test",
        "halfline.cubic_nonneg_sufficient: line 8: finiteness test",
        "criteria._verdict: line 5: finiteness test",
        "criteria._verdict: line 5: finiteness test",
        "criteria._verdict: line 5: finiteness test",
        "vacuum._report: line 3: finiteness test",
    ]


def test_scale_rules():
    sources = {"halfline": ("import math\n"
                            "def power_scale(values):\n"
                            "    e = math.frexp(max(values))[1]\n"
                            "    return e, [math.ldexp(v, -e) for v in values]\n"
                            "def cubic_nonneg_exact(cc):\n"
                            "    return math.frexp(cc[0])\n"),
               "vacuum": ("from math import ldexp as shift\n"
                          "def _report(p):\n"
                          "    return shift(p, 3)\n")}
    assert owner_violations(sources) == [
        "halfline.cubic_nonneg_exact: line 6: power-of-two scale",
        "vacuum._report: line 3: power-of-two scale",
    ]


def test_disc_rules():
    sources = {"halfline": ("def cubic_disc(a, b, c, d):\n"
                            "    return a * d\n"
                            "def cubic_disc_checked(a, b, c, d):\n"
                            "    return cubic_disc(a, b, c, d)\n"),
               "criteria": ("from .halfline import cubic_disc as disc, cubic_disc_checked\n"
                            "from . import halfline\n"
                            "def thm41(a):\n"
                            "    return disc(*a), halfline.cubic_disc(*a), cubic_disc_checked(*a)\n"),
               "vacuum": ("from .halfline import cubic_disc\n"
                          "def _report(a):\n"
                          "    return cubic_disc(*a)\n")}
    assert owner_violations(sources) == [
        "criteria.thm41: line 4: unchecked discriminant",
        "criteria.thm41: line 4: unchecked discriminant",
        "vacuum._report: line 3: unchecked discriminant",
    ]


def test_exact_rules():
    sources = {"halfline": ("from fractions import Fraction\n"
                            "def _exact(*xs):\n"
                            "    return [Fraction(x) for x in xs]\n"
                            "def root_margin_checked(b, a, g):\n"
                            "    return _exact(b, a, g)\n"
                            "def quad_nonneg(qc):\n"
                            "    return _exact(*qc)\n"),
               "criteria": ("from .halfline import _exact as rationals\n"
                            "from . import halfline\n"
                            "def thm33(a):\n"
                            "    return rationals(*a), halfline._exact(*a)\n")}
    assert owner_violations(sources) == [
        "halfline.quad_nonneg: line 7: exact recheck",
        "criteria.thm33: line 4: exact recheck",
        "criteria.thm33: line 4: exact recheck",
    ]
