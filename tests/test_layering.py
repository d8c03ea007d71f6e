"""The package's layers, and its one door into a tensor.

Each module of ``src/copos`` imports only the copos modules below it:
``tensors`` none, ``halfline`` and ``documents`` only ``tensors``,
``criteria`` and ``oracle`` only those two, ``vacuum`` those three, while
``cli`` and ``__init__`` may import any.  Only ``oracle`` and ``vacuum``
import numpy, so the scalar algebra of ``halfline`` and ``criteria`` stays
pure Python.  ``tensors.build`` is the only
function that calls the raw ``SymmetricTensor(...)`` constructor, so every
tensor meets its rules, and ``tensors`` alone defines the order limit
``_MAX_ORDER`` that ``build`` applies.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "copos").glob("*.py"))

ANY = None  # may import every copos module
ALLOWED_IMPORTS = {
    "tensors": set(),
    "halfline": {"tensors"},
    "documents": {"tensors"},
    "criteria": {"tensors", "halfline"},
    "oracle": {"tensors", "halfline"},
    "vacuum": {"tensors", "halfline", "criteria"},
    "cli": ANY,
    "__init__": ANY,
}
NUMPY_IMPORTERS = {"oracle", "vacuum"}
DOOR = "tensors.build"
LIMIT_OWNER = "tensors"


def _imported(node: ast.AST) -> list[str]:
    """The copos modules an import statement loads; ``from . import x``
    loads x if it is a module, else the package's ``__init__``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return [name.split(".")[1] if "." in name else "__init__"
                for name in names if name.split(".")[0] == "copos"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0 and (node.module or "").split(".")[0] != "copos":
        return []
    parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
    if parts and parts[0]:
        return [parts[0]]
    return [alias.name if alias.name in ALLOWED_IMPORTS else "__init__" for alias in node.names]


def _imports_numpy(node: ast.AST) -> bool:
    # import numpy[.x] [as y], or from numpy[.x] import y
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "numpy")


def _is_raw_constructor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return ((isinstance(func, ast.Name) and func.id == "SymmetricTensor")
            or (isinstance(func, ast.Attribute) and func.attr == "SymmetricTensor"))


def _defines_limit(node: ast.AST) -> bool:
    # the name as an assignment target, annotated or not
    return (isinstance(node, ast.Name) and node.id == "_MAX_ORDER"
            and isinstance(node.ctx, ast.Store))


def layer_violations(sources: dict[str, str]) -> list[str]:
    """Imports across the layers, numpy imports outside NUMPY_IMPORTERS, raw
    constructor calls outside DOOR and definitions of _MAX_ORDER outside LIMIT_OWNER."""
    out = []
    for module, source in sources.items():
        allowed = ALLOWED_IMPORTS.get(module, set())

        def visit(node: ast.AST, scope: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{module}.{node.name}"
            for target in _imported(node):
                if allowed is not ANY and target != module and target not in allowed:
                    out.append(f"{scope}: line {node.lineno}: imports {target}")
            if _imports_numpy(node) and module not in NUMPY_IMPORTERS:
                out.append(f"{scope}: line {node.lineno}: imports numpy")
            if _is_raw_constructor(node) and scope != DOOR:
                out.append(f"{scope}: line {node.lineno}: calls SymmetricTensor")
            if _defines_limit(node) and module != LIMIT_OWNER:
                out.append(f"{scope}: line {node.lineno}: defines _MAX_ORDER")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(source), module)
    return out


def test_layers_and_the_one_door():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    assert set(sources) == set(ALLOWED_IMPORTS)  # a new module needs a layer
    assert layer_violations(sources) == []


def test_layer_rules():
    sources = {"tensors": ("_MAX_ORDER = 2 ** 16\n"
                           "class SymmetricTensor:\n"
                           "    def scale(self, c):\n"
                           "        return SymmetricTensor(1, 1, {})\n"
                           "def build(order, dim, entries):\n"
                           "    return SymmetricTensor(order, dim, entries)\n"),
               "documents": ("from .criteria import _check_order\n"
                             "from .tensors import build\n"
                             "from copos.oracle import min_on_simplex\n"
                             "import copos.vacuum\n"),
               "criteria": ("from . import tensors, halfline\n"
                            "from . import __version__\n"
                            "_MAX_ORDER: int = 2 ** 16\n"
                            "def decompose(t):\n"
                            "    return tensors.SymmetricTensor(3, 3, {})\n"),
               "cli": ("from . import criteria, oracle, vacuum\n"
                       "from .tensors import SymmetricTensor\n"
                       "def _check(t):\n"
                       "    return isinstance(t, SymmetricTensor)\n")}
    assert layer_violations(sources) == [
        "tensors.scale: line 4: calls SymmetricTensor",
        "documents: line 1: imports criteria",
        "documents: line 3: imports oracle",
        "documents: line 4: imports vacuum",
        "criteria: line 2: imports __init__",
        "criteria: line 3: defines _MAX_ORDER",
        "criteria.decompose: line 5: calls SymmetricTensor",
    ]


def test_numpy_rule():
    sources = {"halfline": ("import numpy as np\n"
                            "def grid(n):\n"
                            "    from numpy.linalg import norm\n"),
               "criteria": "import math, numpy.linalg\n",
               "oracle": "import numpy as np\nfrom numpy import linalg\n",
               "vacuum": "import numpy\n",
               "cli": "from numpy import ndarray\n",
               "documents": "import numpyro\n"}
    assert layer_violations(sources) == [
        "halfline: line 1: imports numpy",
        "halfline.grid: line 3: imports numpy",
        "criteria: line 1: imports numpy",
        "cli: line 1: imports numpy",
    ]
