"""The benchmark's instrumentation still finds every entry point it wraps,
every program function has a caller in the program, the program passes
every optional parameter it declares, and it reads every dataclass field
it declares."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HOOKS = ROOT / "perfbench" / "hooks.py"

# Program functions whose name is also an attribute of numpy or of a
# builtin or numpy type, so that a count of bare names also finds the
# library's own uses (`dict.get`, `np.add`, `ndarray.shape`, ...): such a
# function would pass with no program caller at all. Each is listed with
# a program function that calls it, checked by reading the code.
SHARED_NAMES = {
    "data.EntityDetection.center": "decoder.initial_points",
    "decoder.DecoderStack.decode": "model.RelationModel.forward",
    "params.Parameter.data": "optim.AdamW.step",
    "params.ParameterRegistry.add": "params.LinearParams.__init__",
    "tensor.Tensor.ndim": "tensor.matmul",
    "tensor.Tensor.shape": "decoder.GcaLayer.__call__",
    "tensor.add": "tensor.gumbel_softmax",
    "tensor.concat": "decoder.snap_scale",
    "tensor.exp": "sampler.GroupOffsetPredictor.__call__",
    "tensor.matmul": "tensor.Tensor.__matmul__",
    "tensor.reshape": "sampler.draw_offsets",
    "tensor.take": "tensor.Tensor.__getitem__",
    "tensor.transpose": "decoder.split_heads",
}
LIBRARY_ATTRIBUTES = frozenset(name for owner in (np, np.ndarray, np.random.Generator, dict,
                                                  list, set, str, bytes, tuple)
                               for name in dir(owner))

# Optional parameters that no program call passes, each with its reason.
UNPASSED_OPTIONS = {
    "cli.main(argv)": "the console script calls main() on sys.argv; tests pass argv",
    "decoder.GcaLayer.__call__(return_weights)":
        "acceptance criterion 3 reads the weights; the planned telemetry is to pass it",
    "decoder.RcaLayer.__call__(return_weights)":
        "acceptance criterion 3 reads the weights; the planned telemetry is to pass it",
}


def program_trees() -> dict:
    """The syntax tree of every Python file under `src/` and `perfbench/`."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def definitions(path, tree):
    """(qualified name, class node or None, function node) of every
    module-level function and method of a module under `src/relattn/`,
    qualified as module.function or module.Class.method."""
    if path.parent.name != "relattn":
        return
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{path.stem}.{node.name}.{item.name}", node, item


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    """Each span and special target of `perfbench.hooks.Tracer` names a
    function or method that exists; a renamed one would show only as a
    `trace target ... not found` error in traced benchmark runs."""
    tracer = load_hooks().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def referenced_names(tree) -> Counter:
    """How often each name is read, called or imported in an AST."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_program_function_has_a_program_caller():
    """Each module-level function and non-dunder method under
    `src/relattn/` is named somewhere in `src/` or `perfbench/` outside
    its own definition, so no program code lives on for tests alone.
    `gradcheck.py` is the exception: the tests are its callers."""
    trees = program_trees()
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unread = []
    for path, tree in trees.items():
        if path.name == "gradcheck.py":
            continue
        for qualname, _cls, node in definitions(path, tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if everywhere[node.name] == referenced_names(node)[node.name]:
                unread.append(f"{path.name}:{node.lineno} {qualname}")
    assert unread == []


def test_names_shared_with_the_library_have_a_program_caller():
    """The bare-name count above cannot tell a program function from a
    library attribute of the same name: a method `get` with no program
    caller would pass on the strength of `dict.get` calls. So
    every program function named like an attribute of numpy or of a
    builtin or numpy type is listed in SHARED_NAMES with a program
    function that calls it, and that caller must still name it."""
    trees = program_trees()
    defs = {qualname: node for path, tree in trees.items()
            for qualname, _cls, node in definitions(path, tree)}
    shared = {qualname for qualname, node in defs.items()
              if node.name in LIBRARY_ATTRIBUTES
              and not (node.name.startswith("__") and node.name.endswith("__"))}
    assert sorted(shared) == sorted(SHARED_NAMES)
    for qualname, caller in SHARED_NAMES.items():
        name = qualname.rsplit(".", 1)[-1]
        assert referenced_names(defs[caller])[name] > 0, f"{caller} no longer calls {name}"


def dataclass_fields(tree):
    """(class name, field name) of each field of each dataclass defined at
    the top level of an AST."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read_by_the_program():
    """Each field of a dataclass under `src/relattn/` is read as `.field`
    somewhere in `src/` or `perfbench/`: a field that the program only
    fills is dead weight in its interface, and one that only tests read
    is a test convenience. Reads are matched by the bare attribute name,
    as the caller check above matches functions."""
    trees = program_trees()
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = [f"{path.name} {cls}.{name}" for path, tree in trees.items()
              if path.parent.name == "relattn"
              for cls, name in dataclass_fields(tree) if reads[name] == 0]
    assert unread == []


def callee(call: ast.Call) -> str | None:
    """The name a call goes through: `f` for f(...), obj.f(...) and
    f[i](...), None for any other callee."""
    func = call.func
    while isinstance(func, ast.Subscript):
        func = func.value
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def target_names(target) -> set:
    """The names an assignment target binds: `x`, `obj.x`, `x[i]`, and
    each element of a tuple target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*(target_names(t) for t in target.elts))
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return {target.id}
    return {target.attr} if isinstance(target, ast.Attribute) else set()


def instance_names(trees: dict, cls: str) -> set:
    """Names the program binds to instances of class ``cls``: targets of
    an assignment, or lists appended to, whose value constructs one."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "append"):
                targets, value = [node.func.value], node
            else:
                continue
            if any(isinstance(n, ast.Call) and callee(n) == cls for n in ast.walk(value)):
                names |= set().union(*(target_names(t) for t in targets))
    return names


def test_instance_names_skips_a_bare_append_call():
    """A call to a bare function named `append`, such as a local
    `append = items.append`, binds no list; only `xs.append(...)` does."""
    tree = ast.parse("append = items.append\nappend(Foo())\nxs.append(Foo())\n")
    assert instance_names({"module.py": tree}, "Foo") == {"xs"}


def optional_parameters(cls, node: ast.FunctionDef) -> list:
    """(positional index or None, name) of each parameter with a default;
    a method's index does not count self."""
    args = node.args
    positional = args.posonlyargs + args.args
    if cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in node.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    options = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return options + [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]


def passes(call: ast.Call, index, name: str) -> bool:
    """Whether a call passes a parameter: by keyword, or by position
    (a starred argument counts for none)."""
    if any(k.arg == name for k in call.keywords):
        return True
    return index is not None and sum(not isinstance(a, ast.Starred) for a in call.args) > index


def test_every_optional_parameter_is_passed_by_the_program():
    """Each optional parameter of a program function is passed by some
    call in `src/` or `perfbench/`; one that only tests pass is a test
    convenience in the program's interface, and one whose default is
    the only value ever used is a constant. Calls are matched by the
    function's name, by the class name for `__init__`, and for
    `__call__` through the names the program binds to instances of the
    class. UNPASSED_OPTIONS lists the exceptions with their reasons;
    `gradcheck.py` is exempt, as the tests are its callers."""
    trees = program_trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(callee(node), []).append(node)
    unpassed = set()
    for path, tree in trees.items():
        if path.name == "gradcheck.py":
            continue
        for qualname, cls, node in definitions(path, tree):
            if node.name == "__init__":
                candidates = calls.get(cls.name, [])
            elif node.name == "__call__":
                candidates = [c for name in instance_names(trees, cls.name)
                              for c in calls.get(name, [])]
            else:
                candidates = calls.get(node.name, [])
            for index, name in optional_parameters(cls, node):
                if not any(passes(call, index, name) for call in candidates):
                    unpassed.add(f"{qualname}({name})")
    assert sorted(unpassed) == sorted(UNPASSED_OPTIONS)


# Generator methods that draw values; a parameter's initial draw goes
# through `params.init_normal` (or `xavier`, which calls it), so that a
# model built with rng None, to be loaded from a checkpoint, draws nothing.
DRAWS = frozenset({"normal", "uniform", "standard_normal"})


def direct_draws_into_registry(tree) -> list:
    """Line numbers of the `.add(...)` calls whose arguments call a
    generator's draw method directly: in the argument itself, or in a value
    assigned, in the same function, to a name the argument reads."""
    lines = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        assigned: dict = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for name in set().union(*(target_names(t) for t in node.targets)):
                    assigned.setdefault(name, []).append(node.value)
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"):
                continue
            args = node.args + [k.value for k in node.keywords]
            sources = args + [value for arg in args for n in ast.walk(arg)
                              if isinstance(n, ast.Name) for value in assigned.get(n.id, [])]
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr in DRAWS for source in sources for n in ast.walk(source)):
                lines.add(node.lineno)
    return sorted(lines)


def test_direct_draws_into_registry_finds_both_forms():
    """A draw in the argument and one through a local name are found; a
    draw through `init_normal` or `xavier` is not."""
    tree = ast.parse(
        "def build(registry, rng):\n"
        "    registry.add('a', rng.normal(0.0, 0.02, size=(2,)))\n"
        "    w = 0.1 * rng.uniform(size=3)\n"
        "    registry.add('b', w)\n"
        "    registry.add('c', init_normal(rng, 0.02, (2,)))\n"
        "    registry.add('d', xavier(rng, 2, 3))\n")
    assert direct_draws_into_registry(tree) == [2, 4]


def test_parameters_are_drawn_through_init_normal():
    """No parameter under `src/relattn/` draws its initial values from a
    generator directly: each goes through `params.init_normal`, which a
    model built for loading skips."""
    found = [f"{path.name}:{line}" for path, tree in program_trees().items()
             if path.parent.name == "relattn" for line in direct_draws_into_registry(tree)]
    assert found == []
