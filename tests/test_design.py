"""Design lint: the law table is the one place that knows the groups.

Every group dimension and every choice made on a group's name lives in
``groups.law``; elsewhere the code asks the Law it gets from there.  The lint
keeps the formula m(m−1)/2 and comparisons of a ``case`` or ``group`` against
a group name out of the rest of ``src/anharm``.  A second lint keeps
``np.meshgrid`` out of it too: ``testfuncs.node_mesh`` is the one mesh builder,
with the column-contiguous layout the group laws use.  A third keeps every
quotient y⁻¹x or x·y⁻¹ in the one-pass kernels of ``groups.py``: elsewhere no
product is taken of an inverse.  A fourth fails on any name in a module's
``__all__`` that no code in ``src/anharm``, perfbench or the acceptance tests
reads outside the name's own definition, unless it is listed, with its
reason, among the names kept unread.  A fifth keeps the direct engines on
two integrand builders: ``harmonic._quadrature``, the one quadrature loop,
is called only by the group-convolution core and the substituted core.  A
sixth keeps one product-form class: ``groups._Bilinear`` is the only class
whose values a test function reads through an ``exponent``.  A seventh keeps
one block-size rule: ``harmonic._CHUNK`` is read only by the rule
``_block_size``, and the rule only by the node walk ``_node_blocks`` and
the pullback lattice engine, so no engine sizes its own blocks.  An eighth
keeps one node block through the direct engines: ``groups.py``,
``harmonic.py``, ``testfuncs.py`` and ``extension.py`` make no
``isinstance(…, tuple)`` test, so no pair of blocks is dispatched on, and
no method of ``TestFunction`` takes blocks as ``*args``.  A ninth keeps a
quotient's form on its divisor: the direct cores construct no empty
``_Bilinear()`` to ask for a block, no module hands ``ldiv``/``rdiv`` an
``out`` or ``scratch``, every Law's ``mul``, ``ldiv`` and ``rdiv`` take their
two operands only, and ``_Bilinear`` has no ``_made_of``, ``_build`` or
``columns``, which rebuilt a quotient by its operands' identity.
"""

import ast
import inspect
import pathlib
import re
from collections import Counter

from anharm import groups

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "anharm"
GROUP_NAMES = {"N", "S", "K1", "H", "M"}
FORMULA = re.compile(r"\bm\s*\*\s*\(\s*m\s*-\s*1\s*\)\s*//\s*2")
ALLOWED = {("groups.py", "law")}  # (file, function) where both may appear


def _subject(node):
    """The name a comparison operand reads: case, p.case, cfg.group, ..."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_group_name(node):
    if isinstance(node, ast.Constant):
        return node.value in GROUP_NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_has_group_name(e) for e in node.elts)
    return False


def design_violations(path):
    """'file:line: kind' for each law dispatch or dimension formula found
    outside the allowed functions."""
    text = path.read_text()
    tree = ast.parse(text)
    allowed = set()
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) in ALLOWED):
            allowed.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, ast.Compare):
            ops = [node.left, *node.comparators]
            if (any(_subject(o) in ("case", "group") for o in ops)
                    and any(_has_group_name(o) for o in ops)):
                found.append((node.lineno, "comparison with a group name"))
    found += [(i, "inline m*(m-1)//2")
              for i, line in enumerate(text.splitlines(), 1)
              if FORMULA.search(line)]
    return [f"{path.name}:{line}: {kind}" for line, kind in sorted(found)
            if line not in allowed]


def test_group_knowledge_stays_in_the_law_table():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "groups.py" for p in paths)
    found = [v for p in paths for v in design_violations(p)]
    assert not found, "\n".join(found)


MESH_HELPER = ("testfuncs.py", "node_mesh")  # the one mesh builder


def meshgrid_uses(path):
    """'file:line' for each np.meshgrid outside the mesh helper."""
    tree = ast.parse(path.read_text())
    allowed = set()
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) == MESH_HELPER):
            allowed.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, ast.Attribute) and node.attr == "meshgrid":
            found.append(node.lineno)
        if isinstance(node, ast.alias) and node.name == "meshgrid":
            found.append(node.lineno)
    return [f"{path.name}:{line}: np.meshgrid" for line in sorted(found)
            if line not in allowed]


def test_one_mesh_builder():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == MESH_HELPER[0] for p in paths)
    found = [v for p in paths for v in meshgrid_uses(p)]
    assert not found, "\n".join(found)


QUOTIENT_KERNELS = "groups.py"  # where ldiv and rdiv are written


def quotient_products(name, text):
    """'name:line' for each call of a *mul function with a call of an *inv
    function among its arguments: a quotient formed outside its kernel.
    x·x⁻¹, the inverse axiom the group checks test, is no quotient."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not (isinstance(node, ast.Call)
                and (_subject(node.func) or "").endswith("mul")):
            continue
        args = node.args + [k.value for k in node.keywords]
        for arg in args:
            for sub in ast.walk(arg):
                if (isinstance(sub, ast.Call) and sub.args
                        and (_subject(sub.func) or "").endswith("inv")):
                    inverted = ast.dump(sub.args[-1])
                    if not any(ast.dump(o) == inverted for o in args):
                        found.append(node.lineno)
    return [f"{name}:{line}: mul of an inv" for line in sorted(set(found))]


def test_quotients_have_one_kernel():
    # the forms the engines used before Law.ldiv and Law.rdiv are caught
    assert quotient_products("x", "B.mul(B.inv(y)[:, None, :], x)")
    assert quotient_products("x", "n_mul(m, x, n_inv(m, w), out=o)")
    assert not quotient_products("x", "B.ldiv(y, x, out=q)")
    assert not quotient_products("x", "mul(x, inv(x))")
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == QUOTIENT_KERNELS for p in paths)
    found = [v for p in paths if p.name != QUOTIENT_KERNELS
             for v in quotient_products(p.name, p.read_text())]
    assert not found, "\n".join(found)


ROOT = SRC.parents[1]
PERFBENCH = ROOT / "perfbench"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TARGETS = "TARGETS"  # perfbench's table of the functions its tracer wraps


def public_names(tree):
    """The names a module's __all__ lists, and the __all__ node."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(_subject(t) == "__all__" for t in node.targets)):
            return [e.value for e in node.value.elts], node
    return [], None


def _references(tree, skip):
    """How often the tree reads each name (Name, Attribute, import aliases
    and the strings of a TARGETS table), outside the nodes in skip."""
    found = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif (isinstance(node, ast.Assign)
              and any(_subject(t) == TARGETS for t in node.targets)):
            found.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)
                         and isinstance(c.value, str))
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_public_names(src, callers):
    """'module.name' for each name in a src module's __all__ that nothing
    reads: not src itself, outside that __all__, nor the callers.  Names
    match bare, so any Name, attribute or import alias of the same name
    counts, except a read inside the name's own top-level definition.  A
    read inside the body of a name found unused does not count either, so
    the search repeats until no name is added."""
    trees = {p: ast.parse(p.read_text()) for p in (*src, *callers)}
    public = {}  # (path, name) → the top-level definition, if any
    skip = set()
    for p in src:
        names, node = public_names(trees[p])
        if node is not None:
            skip.add(node)
        defs = {getattr(n, "name", None): n for n in trees[p].body}
        public.update({(p, name): defs.get(name) for name in names})
    unused = set()
    while True:
        dead = skip | {public[k] for k in unused if public[k]}
        read = sum((_references(t, dead) for t in trees.values()), Counter())
        found = {k for k, node in public.items() if read[k[1]]
                 <= (_references(node, dead)[k[1]] if node else 0)}
        if found == unused:
            return sorted(f"{p.stem}.{name}" for p, name in unused)
        unused = found


def test_unused_surface_lint_sees_a_dead_chain(tmp_path):
    # Point's one reader is dump, which nothing reads; an import alias and
    # a TARGETS string each reach a name; twist reads only its own name
    mod = tmp_path / "mod.py"
    mod.write_text('__all__ = ["Point", "dump", "used", "traced", "twist"]\n'
                   "class Point: pass\n"
                   "def dump(): return Point()\n"
                   "def used(): pass\n"
                   "def traced(): pass\n"
                   "def twist(L): return L.twist()\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from mod import used as run\n"
                      'TARGETS = (("layer", "mod", "traced"),)\n')
    assert unused_public_names([mod], [caller]) == ["mod.Point", "mod.dump",
                                                    "mod.twist"]


# public names kept with no reader, each for the reason given
UNREAD_KEPT = {"extension.gamma": "the paper's Γ, which Law.gamma backs"}


def test_every_public_name_is_reached():
    src = sorted(SRC.glob("*.py"))
    callers = [p for p in sorted(PERFBENCH.glob("*.py"))
               if p.name != "test_harness.py"] + [ACCEPTANCE]
    found = unused_public_names(src, callers)
    assert found == sorted(UNREAD_KEPT), "\n".join(found)


QUADRATURE = ("harmonic.py", "_quadrature")  # the one quadrature loop
BUILDERS = {"_group_convolution", "_substituted_convolution"}


def quadrature_callers(path):
    """The names of the top-level functions of path whose bodies call the
    quadrature loop, each with the line of the call."""
    found = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and _subject(node.func) == QUADRATURE[1]):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_quadrature_has_two_callers():
    callers = quadrature_callers(SRC / QUADRATURE[0])
    assert {name for name, _ in callers} == BUILDERS, callers
    others = [f"{p.name}:{line}: {name}" for p in sorted(SRC.glob("*.py"))
              if p.name != QUADRATURE[0]
              for name, line in quadrature_callers(p)]
    assert not others, "\n".join(others)


PRODUCT_FORM = ("groups.py", "_Bilinear")  # the one product-form class


def product_form_classes(path):
    """(file, class) for each class of path with an exponent method."""
    return [(path.name, node.name) for node in ast.walk(ast.parse(
        path.read_text())) if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "exponent"
                for f in node.body)]


def test_one_product_form_class():
    assert product_form_classes(SRC / PRODUCT_FORM[0]) == [PRODUCT_FORM]
    found = [c for p in sorted(SRC.glob("*.py"))
             for c in product_form_classes(p)]
    assert found == [PRODUCT_FORM], found


# the block-size budget and rule, each with the top-level functions that
# may read it
BLOCK_RULE = ("harmonic.py", {
    "_CHUNK": {"_block_size"},
    "_block_size": {"_node_blocks", "convolve_group_pullback_lattice"}})


def block_rule_reads(path, names):
    """(line, reader, name) for each read of one of names (a bare Name or
    an attribute of that name) in path, reader the top-level function or
    statement it is in."""
    found = []
    for top in ast.parse(path.read_text()).body:
        reader = getattr(top, "name", None)
        found += [(node.lineno, reader, _subject(node))
                  for node in ast.walk(top)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)
                  and _subject(node) in names]
    return sorted(found, key=lambda read: read[0])


def block_rule_violations(path, rule):
    """'file:line: reader reads name' for each read that rule does not
    allow."""
    return [f"{path.name}:{line}: {reader} reads {name}"
            for line, reader, name in block_rule_reads(path, rule)
            if reader not in rule[name]]


def test_block_rule_lint_sees_an_engine_sizing_its_blocks(tmp_path):
    mod = tmp_path / "harmonic.py"
    mod.write_text("_CHUNK = 8\n"
                   "def _block_size(n): return _CHUNK // n\n"
                   "def _node_blocks(n): return _block_size(n)\n"
                   "def engine(n): return range(0, n, _CHUNK * 2)\n")
    assert block_rule_violations(mod, BLOCK_RULE[1]) == [
        "harmonic.py:4: engine reads _CHUNK"]


def test_one_block_size_rule():
    rule = BLOCK_RULE[1]
    home = SRC / BLOCK_RULE[0]
    assert {name for _, _, name in block_rule_reads(home, rule)} == set(rule)
    found = [v for p in sorted(SRC.glob("*.py"))
             for v in block_rule_violations(p, rule)]
    assert not found, "\n".join(found)


# the modules the direct engines' blocks pass through, and the class whose
# methods take one array or one block each
ENGINE_MODULES = ("groups.py", "harmonic.py", "testfuncs.py", "extension.py")
EVALUATOR = "TestFunction"


def tuple_dispatches(path):
    """'file:line: isinstance(…, tuple)' for each isinstance call of path
    whose types name tuple."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and _subject(node.func) == "isinstance"
                and len(node.args) == 2):
            types = node.args[1]
            elts = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(_subject(e) == "tuple" for e in elts):
                found.append(node.lineno)
    return [f"{path.name}:{line}: isinstance(…, tuple)"
            for line in sorted(found)]


def many_block_signatures(path):
    """'file:line: TestFunction.name(*args)' for each method of the
    evaluator class in path that takes *args."""
    return [f"{path.name}:{f.lineno}: {EVALUATOR}.{f.name}(*{f.args.vararg.arg})"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and node.name == EVALUATOR
            for f in node.body
            if isinstance(f, ast.FunctionDef) and f.args.vararg is not None]


def test_node_block_lint_sees_a_planted_pair(tmp_path):
    mod = tmp_path / "harmonic.py"
    mod.write_text("class TestFunction:\n"
                   "    def on_blocks(self, *blocks): pass\n"
                   "    def __call__(self, x): pass\n"
                   "def _at(f, y):\n"
                   "    if isinstance(y, tuple): return f.on_blocks(*y)\n"
                   "    if isinstance(y, (list, tuple)): return None\n"
                   "    return isinstance(y, list)\n")
    assert tuple_dispatches(mod) == ["harmonic.py:5: isinstance(…, tuple)",
                                     "harmonic.py:6: isinstance(…, tuple)"]
    assert many_block_signatures(mod) == [
        "harmonic.py:2: TestFunction.on_blocks(*blocks)"]


def test_one_node_block_through_the_engines():
    paths = [SRC / name for name in ENGINE_MODULES]
    assert any(f"class {EVALUATOR}" in p.read_text() for p in paths)
    found = [v for p in paths
             for v in tuple_dispatches(p) + many_block_signatures(p)]
    assert not found, "\n".join(found)


# the direct cores, which divide by the node block they walk, and the
# names of the block protocol that a node block's kept quotients replaced
DIRECT_CORES = ("harmonic.py", {"_group_convolution",
                                "_substituted_convolution", "_quadrature"})
GONE = {"_made_of", "_build", "columns"}


def quotient_requests(path, names):
    """'file:line: call' for each _Bilinear() construction inside the
    top-level functions of path named in names, and each ldiv or rdiv call
    anywhere in path given an out or scratch (by keyword or as a third
    argument)."""
    found = []
    for top in ast.parse(path.read_text()).body:
        core = getattr(top, "name", None) in names
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            callee = _subject(node.func)
            named = isinstance(node.func, ast.Name)
            if core and named and callee == "_Bilinear":
                found.append((node.lineno, "_Bilinear()"))
            elif callee in ("ldiv", "rdiv") and (
                    len(node.args) > 2 or any(k.arg in ("out", "scratch")
                                              for k in node.keywords)):
                found.append((node.lineno, f"{callee} with out or scratch"))
    return [f"{path.name}:{line}: {call}" for line, call in sorted(found)]


def buffered_operations(laws):
    """'name(m).op' for each mul, ldiv or rdiv of the laws that takes other
    than its two operands."""
    return [f"{L.name}({L.m}).{op}" for L in laws
            for op in ("mul", "ldiv", "rdiv") if getattr(L, op) is not None
            and len(inspect.signature(getattr(L, op)).parameters) != 2]


def _every_law():
    """N, S, M, K1 and H at m = 2..4, and the c_laws of K1 and H."""
    laws = [groups.law(name, m) for name in ("N", "S", "M", "K1", "H")
            for m in (2, 3, 4)]
    return laws + [L.c_law for L in laws if L.c_law is not None]


def gone_protocol(path):
    """'file:line: name' for each definition or attribute read of a name
    in GONE."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name in GONE:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append((node.lineno, node.attr))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


def test_quotient_form_lint_sees_a_planted_request(tmp_path):
    mod = tmp_path / "harmonic.py"
    mod.write_text("class _Bilinear:\n"
                   "    def columns(self, w): pass\n"
                   "def _group_convolution(L, x, y, s):\n"
                   "    q = L.ldiv(y, x, out=_Bilinear())\n"
                   "    return L.rdiv(x, y, q, s), q._made_of(x, y)\n"
                   "def _quadrature(L, x, y):\n"
                   "    return L.ldiv(y, x), _Bilinear.of_columns((), y)\n"
                   "def elsewhere(L, x, y, q):\n"
                   "    return L.ldiv(y, x, out=q), _Bilinear()\n")
    assert quotient_requests(mod, DIRECT_CORES[1]) == [
        "harmonic.py:4: _Bilinear()", "harmonic.py:4: ldiv with out or scratch",
        "harmonic.py:5: rdiv with out or scratch",
        "harmonic.py:9: ldiv with out or scratch"]
    assert gone_protocol(mod) == ["harmonic.py:2: columns",
                                  "harmonic.py:5: _made_of"]
    planted = groups.Law("X", 2, 1, lambda x, y, out=None: x, lambda x: x,
                         ldiv=lambda y, x: x, rdiv=lambda x, y, scratch: x)
    assert buffered_operations([groups.law("N", 2), planted]) == [
        "X(2).mul", "X(2).rdiv"]


def test_quotient_form_follows_the_divisor():
    home = SRC / DIRECT_CORES[0]
    tops = {getattr(t, "name", None) for t in ast.parse(home.read_text()).body}
    assert DIRECT_CORES[1] <= tops
    found = [v for p in sorted(SRC.glob("*.py"))
             for v in quotient_requests(p, DIRECT_CORES[1] if p == home else ())
             + gone_protocol(p)] + buffered_operations(_every_law())
    assert not found, "\n".join(found)
