"""Only ``condexp`` tells the self-map families apart.

Every other module of the package reaches the map families through
``condexp``'s public calls and the map types' own attributes: it imports
neither ``Monomial`` nor ``BlaschkeProduct`` and tests no object against a
self-map class with ``isinstance``.

Likewise ``carleson`` and ``operators`` choose their numerical paths from
each measure's own attributes (``moment_sums``, ``psi``, ...) and test no
object against a measure class with ``isinstance``.

Nor does any module but ``condexp`` read the exponent ``n`` of z^n: the
sweep takes the stride of E f = g(z^n) from ``condexp.expect_coefficients``.

Conditional expectation knows nothing of how a quadrature rule lays out its
nodes: of ``measures``, ``condexp`` imports only ``Polynomial``.

And one routine evaluates Psi exactly for weighted areas: only
``measures._hyp2f1_near_one`` (or a helper that only it reads) calls scipy's
``hyp2f1``, and only ``measures._psi_squared`` calls ``_hyp2f1_near_one``.

Psi reads no quadrature rule, so no function that computes it takes a
``quad``, ``operators.boundedness_criterion`` excepted.

Disk masses read no quadrature rule either, so no function that computes
them or C2 takes a ``quad``, ``carleson.reference_disk_constant`` excepted.

And 1 - |a|^2 is formed in two gates: ``Measure.psi`` hands every ``_psi``
its ``centers, y, t``, and ``Measure.disk_measure`` hands every
``_disk_masses`` its ``centers, y, r``. Both form or check y in one helper,
``_centers``; in ``measures`` only it and ``_weight_zeros`` (on zeros of u,
not on centres) call ``one_minus_modulus_sq``.

C2 builds no rule against dA_beta and realises no disk as a Euclidean one, for
any measure: densities pull each disk back onto D(0, tanh r).

No Psi path evaluates u on a circle: the Fourier path forms the modes of
|u|^p from the zeros of u.

Certification imports no sampler: ``scipy.stats`` is loaded only when a
lattice's cover or overlap is sampled, never by ``import bergmanlab``.

Caches that outlive a call hold bounded memory: every ``lru_cache`` is given a
literal finite ``maxsize``, and ``functools.cache`` is not used.

Quadrature rules take their Gauss-Jacobi nodes from numpy alone: no module
imports scipy's ``roots_jacobi`` or ``scipy.linalg``, and building the rules
loads neither ``scipy.linalg`` nor ``scipy.stats``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergmanlab

PACKAGE = Path(bergmanlab.__file__).resolve().parent
# condexp defines the families; __init__ only re-exports them.
EXEMPT = {"condexp.py", "__init__.py"}
FAMILIES = {"Monomial", "BlaschkeProduct"}
MAP_CLASSES = FAMILIES | {"AnalyticSelfMap", "Identity"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def isinstance_uses(source, classes):
    """(line, description) of each isinstance test against one of ``classes`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance" \
                and len(node.args) == 2:
            named = {_name(n) for n in ast.walk(node.args[1])} & classes
            if named:
                found.append((node.lineno, f"isinstance against {sorted(named)}"))
    return found


def map_class_uses(source):
    """(line, description) of each family import or reference and each isinstance test
    against a self-map class in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {alias.name}") for alias in node.names
                      if alias.name in FAMILIES]
        elif isinstance(node, ast.Attribute) and node.attr in FAMILIES:
            found.append((node.lineno, f"reads .{node.attr}"))
    return sorted(found + isinstance_uses(source, MAP_CLASSES))


MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name not in EXEMPT)


def test_modules_found():
    assert {"carleson.py", "operators.py", "suite.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_map_class_outside_condexp(path):
    assert map_class_uses(path.read_text()) == []


def test_detector_sees_each_form():
    source = (
        "from .condexp import AnalyticSelfMap, Monomial\n"
        "from . import condexp\n"
        "def f(phi):\n"
        "    if isinstance(phi, Monomial):\n"
        "        return 1\n"
        "    if isinstance(phi, (condexp.Identity, int)):\n"
        "        return condexp.BlaschkeProduct\n"
        "    return isinstance(phi, int)\n"
    )
    assert [line for line, _ in map_class_uses(source)] == [1, 4, 6, 7]


def exponent_reads(source):
    """Lines of ``source`` that read an attribute ``n``, the exponent of z^n."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "n"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_but_condexp_reads_the_exponent_of_z_n(path):
    # carleson takes the stride of E f = g(z^n) from condexp.expect_coefficients.
    assert exponent_reads(path.read_text()) == []


def test_exponent_detector_sees_each_form():
    source = (
        "def f(phi, spec):\n"
        "    k = phi.n + spec.n_dirs\n"
        "    return getattr(phi, 'm'), self.phi.n\n"
    )
    assert exponent_reads(source) == [2, 3]


MEASURE_CLASSES = {"Measure", "RadialDensity", "WeightedArea", "PolyWeighted", "Atomic",
                   "GridDensity", "SumMeasure"}
# The modules that choose a numerical path per measure.
PATH_CHOOSERS = ("carleson.py", "operators.py")


@pytest.mark.parametrize("name", PATH_CHOOSERS)
def test_no_isinstance_on_a_measure_class(name):
    assert isinstance_uses((PACKAGE / name).read_text(), MEASURE_CLASSES) == []


def test_measure_detector_sees_each_form():
    source = (
        "from . import measures\n"
        "from .measures import RadialDensity\n"
        "def f(mu):\n"
        "    if isinstance(mu, RadialDensity):\n"
        "        return 1\n"
        "    if isinstance(mu, (measures.Atomic, int)):\n"
        "        return mu.moment_sums\n"
        "    return isinstance(mu, int) or type(mu) is measures.SumMeasure\n"
    )
    assert [line for line, _ in isinstance_uses(source, MEASURE_CLASSES)] == [4, 6]


def names_from(source, module):
    """The names ``source`` takes from the package module ``module``: those of
    ``from .module import ...`` and the attributes it reads of the module
    after ``from . import module``."""
    tree = ast.parse(source)
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"bergmanlab.{module}"):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "bergmanlab"):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == module}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _name(node.value) in aliases:
            found.add(node.attr)
    return found


def test_condexp_takes_only_polynomial_from_measures():
    assert names_from((PACKAGE / "condexp.py").read_text(), "measures") == {"Polynomial"}


def test_import_detector_sees_each_form():
    source = (
        "from .measures import Polynomial, ring_shifts\n"
        "from . import measures as m, geometry\n"
        "from bergmanlab.measures import rotations\n"
        "def f(z):\n"
        "    return m.build_quadrature(0.0).nodes, geometry.modulus(z)\n"
    )
    assert names_from(source, "measures") == {"Polynomial", "ring_shifts", "rotations",
                                              "build_quadrature"}


# The one exact Psi routine for weighted areas, and the one function that
# calls scipy's hyp2f1 on its behalf.
PSI_ROUTINE = "_psi_squared"
NEAR_ONE = "_hyp2f1_near_one"


def references(source):
    """{name: set of the qualified names of the functions that reference it} for
    every name and attribute read in ``source``; "<module>" outside functions."""
    found = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            name = _name(child)
            if name is not None and isinstance(getattr(child, "ctx", None), ast.Load):
                found.setdefault(name, set()).add(where or "<module>")
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def package_references():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, where in references(path.read_text()).items():
            found.setdefault(name, set()).update(where)
    return found


def test_one_function_calls_scipy_hyp2f1_for_the_one_psi_routine():
    uses = package_references()
    assert uses.get(NEAR_ONE) == {PSI_ROUTINE}
    for caller in uses.get("hyp2f1", set()) - {NEAR_ONE}:
        # a helper of the one function, read by nothing else
        assert uses.get(caller.rsplit(".", 1)[-1]) == {NEAR_ONE}, caller


def test_references_name_each_enclosing_function():
    source = (
        "from scipy.special import hyp2f1\n"
        "def helper(x):\n"
        "    return hyp2f1(1, 2, 3, x)\n"
        "class Radial:\n"
        "    def _psi(self, x):\n"
        "        return special.hyp2f1(1, 2, 3, x) + helper(x)\n"
        "LIMIT = helper(0.5)\n"
    )
    uses = references(source)
    assert uses["hyp2f1"] == {"helper", "Radial._psi"}
    assert uses["helper"] == {"Radial._psi", "<module>"}


def parameters(source):
    """{qualified name: parameter names} of every function defined in ``source``."""
    found = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{where}.{child.name}" if where else child.name
                if not isinstance(child, ast.ClassDef):
                    args = child.args
                    found[name] = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                                   + [args.vararg, args.kwarg] if a is not None}
                visit(child, name)

    visit(ast.parse(source), "")
    return found


# The functions that compute Psi, by module: in measures, ``Measure.psi`` and
# every ``_psi``. ``operators.boundedness_criterion`` computes Psi too, but it
# keeps an unused ``quad``: the benchmark's operator workloads still pass it a
# QuadConfig positionally, and the benchmark's files do not change with the
# package's. Drop the parameter once they stop passing it.
PSI_FUNCTIONS = {
    "measures.py": {"Measure.psi", "Measure._psi", "RadialDensity._psi", "PolyWeighted._psi",
                    "Atomic._psi", "SumMeasure._psi"},
    "carleson.py": {"psi_transform", "psi_sup", "psi_heatmap"},
    "operators.py": {"multiplication_criterion"},
}


@pytest.mark.parametrize("name", sorted(PSI_FUNCTIONS))
def test_no_psi_function_takes_a_quadrature(name):
    defined = parameters((PACKAGE / name).read_text())
    psi = set(PSI_FUNCTIONS[name])
    if name == "measures.py":
        psi |= {f for f in defined if f.rsplit(".", 1)[-1] in ("psi", "_psi")}
    assert psi <= set(defined)
    assert sorted(f for f in psi if "quad" in defined[f]) == []


# The functions that compute disk masses or C2, by module: in measures, every
# ``disk_measure`` and ``_disk_masses`` too. ``carleson.reference_disk_constant``
# computes C2 as well, but it keeps an unused ``quad``: the benchmark's warm-up
# still passes it a QuadConfig positionally, and the benchmark's files do not
# change with the package's. Drop the parameter once it stops passing one.
DISK_FUNCTIONS = {
    "measures.py": {"Measure.disk_measure", "measure_of_disk", "_pulled_back", "_disk_series",
                    "_kernel_rule", "_disk_rule"},
    "carleson.py": {"disk_bound", "disk_constant", "_reference_disk_constant"},
}
DISK_SHIMS = {"carleson.py": ["reference_disk_constant"]}


@pytest.mark.parametrize("name", sorted(DISK_FUNCTIONS))
def test_no_disk_mass_function_takes_a_quadrature(name):
    defined = parameters((PACKAGE / name).read_text())
    disk = set(DISK_FUNCTIONS[name])
    if name == "measures.py":
        disk |= {f for f in defined if f.rsplit(".", 1)[-1] in ("disk_measure", "_disk_masses")}
    assert disk <= set(defined)
    assert sorted(f for f in disk if "quad" in defined[f]) == []
    named = sorted(f for f in defined if "disk" in f.lower() and "quad" in defined[f])
    assert named == DISK_SHIMS.get(name, [])


def test_one_minus_modulus_sq_is_formed_only_by_the_two_gates():
    uses = references((PACKAGE / "measures.py").read_text())
    assert uses["one_minus_modulus_sq"] == {"_centers", "_weight_zeros"}
    assert {"Measure.psi", "Measure.disk_measure"} <= uses["_centers"]


def test_every_psi_takes_centers_y_and_t():
    defined = parameters((PACKAGE / "measures.py").read_text())
    psi = {f for f in defined if f.rsplit(".", 1)[-1] == "_psi"}
    assert PSI_FUNCTIONS["measures.py"] - {"Measure.psi"} <= psi
    assert {f: defined[f] for f in psi} == {f: {"self", "centers", "y", "t"} for f in psi}


def test_parameter_detector_sees_each_form():
    source = (
        "def f(a, /, b, *rest, quad=None, **extra):\n"
        "    def inner(quad): pass\n"
        "class Radial:\n"
        "    def _psi(self, centers, t): pass\n"
    )
    assert parameters(source) == {"f": {"a", "b", "rest", "quad", "extra"}, "f.inner": {"quad"},
                                  "Radial._psi": {"self", "centers", "t"}}


def test_disk_constant_builds_no_rule(monkeypatch):
    from bergmanlab import geometry, measures
    from bergmanlab.carleson import cached_lattice, disk_constant
    from bergmanlab.measures import Atomic, Polynomial, PolyWeighted, RadialDensity, SumMeasure, \
        WeightedArea

    def refuse(*args):
        raise AssertionError("C2 built a quadrature rule")

    lat = cached_lattice(0.5, 0.02)
    u = Polynomial.from_coeffs([0.3 - 0.2j, -0.7 + 0.4j, 0.45 + 0.1j])
    atoms = Atomic.from_atoms([(0.0, 1.0), (0.3 + 0.2j, 0.5), (0.985, 2.0)])
    measures_ = (WeightedArea(0.5), RadialDensity(-0.5, 2.0), PolyWeighted(u, 2.0, 0.3),
                 PolyWeighted(u, 4.0, 0.3), PolyWeighted(Polynomial.from_coeffs([1.5j]), 3.0, 0.3),
                 PolyWeighted(u, 3.0, 0.3), PolyWeighted(u, 1.5, -0.2),
                 SumMeasure((RadialDensity(0.3), PolyWeighted(u, 3.0, -0.2), atoms)))
    monkeypatch.setattr(measures, "build_quadrature", refuse)
    monkeypatch.setattr(geometry, "bergman_disk", refuse)
    for mu in measures_:
        assert disk_constant(mu, 0.0, 0.5, lat).c2 > 0


def test_no_psi_path_samples_u_on_a_circle(monkeypatch):
    # The Fourier path takes the modes of |u|^p from the zeros of u, so Psi
    # never evaluates the polynomial, at any depth.
    import numpy as np

    from bergmanlab.measures import Polynomial, PolyWeighted

    u = Polynomial.from_coeffs([0.3 - 0.2j, -0.7 + 0.4j, 0.45 + 0.1j])
    mu = PolyWeighted(u, 1.5, 0.3)

    def refuse(self, z):
        raise AssertionError("Psi evaluated u")

    monkeypatch.setattr(Polynomial, "__call__", refuse)
    centers = np.array([0.0, 0.5j, -0.9, (1.0 - 2.0**-20) * np.exp(1j)])
    assert np.all(np.isfinite(mu.psi(centers, 2.5)))


def test_import_loads_no_sampler():
    # A fresh interpreter, since this one holds whatever the other tests imported.
    code = "import sys, bergmanlab, bergmanlab.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False"]


def unbounded_caches(source):
    """(line, description) of each ``lru_cache`` in ``source`` that is not given a
    literal finite ``maxsize``, and of each use of ``functools.cache``."""
    tree = ast.parse(source)
    found, sized = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "imports functools.cache") for alias in node.names
                      if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and _name(node.value) == "functools":
            found.append((node.lineno, "reads functools.cache"))
        elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            sized.add(id(node.func))
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int and sizes[0].value >= 0):
                found.append((node.lineno, "lru_cache without a literal finite maxsize"))
    found += [(node.lineno, "lru_cache without a maxsize") for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "lru_cache"
              and id(node) not in sized]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []


def test_cache_detector_sees_each_form():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def f(x): pass\n"
        "@lru_cache\n"
        "def g(x): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def h(x): pass\n"
        "@lru_cache(SIZE)\n"
        "def k(x): pass\n"
        "@functools.cache\n"
        "def m(x): pass\n"
        "n = lru_cache(maxsize=4)(len)\n"
    )
    assert [line for line, _ in unbounded_caches(source)] == [2, 5, 7, 9, 11]


def test_rules_load_no_linear_algebra_or_sampler():
    # A fresh interpreter, as in test_import_loads_no_sampler.
    code = ("import sys, bergmanlab\n"
            "from bergmanlab.measures import _gauss_jacobi, build_quadrature, euclid_disk_rule\n"
            "build_quadrature(0.3, 256, 512), _gauss_jacobi(16, 0.37), euclid_disk_rule(0.5, 0.1)\n"
            "print([name for name in ('scipy.linalg', 'scipy.stats') if name in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]"]


def _in_linalg(module):
    return module == "scipy.linalg" or module.startswith("scipy.linalg.")


def linear_algebra_imports(source):
    """(line, description) of each import or read in ``source`` of ``scipy.linalg`` or of
    scipy's ``roots_jacobi``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"imports {alias.name}") for alias in node.names
                      if _in_linalg(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _in_linalg(module):
                found.append((node.lineno, f"imports from {module}"))
            found += [(node.lineno, f"imports {alias.name}") for alias in node.names
                      if alias.name == "roots_jacobi"
                      or (module == "scipy" and alias.name == "linalg")]
        elif isinstance(node, ast.Attribute) and (
                node.attr == "roots_jacobi"
                or (node.attr == "linalg" and _name(node.value) == "scipy")):
            found.append((node.lineno, f"reads .{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_scipy_linear_algebra(path):
    assert linear_algebra_imports(path.read_text()) == []


def test_linear_algebra_detector_sees_each_form():
    source = (
        "import scipy.linalg\n"
        "from scipy.linalg import eigh\n"
        "from scipy import linalg, special\n"
        "from scipy.special import gammaln, roots_jacobi\n"
        "import numpy as np\n"
        "x = np.linalg.eigvalsh(np.eye(2))\n"
        "y = special.roots_jacobi(4, 0.0, 0.0)\n"
        "z = scipy.linalg.eigh\n"
    )
    assert [line for line, _ in linear_algebra_imports(source)] == [1, 2, 3, 4, 7, 8]
