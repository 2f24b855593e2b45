import ast
import pathlib

import sfda2
import sfda2.model
import sfda2.numerics
import sfda2.verify

SRC = pathlib.Path(sfda2.__file__).parent


def test_every_exported_name_resolves():
    for name in sfda2.__all__:
        assert hasattr(sfda2, name), name


def test_removed_names_not_exported():
    removed = ("AffinityWeights", "NeighborSet", "ScoreBank", "pseudo_label")
    for name in removed:
        assert name not in sfda2.__all__
        assert not hasattr(sfda2, name)


def test_per_array_model_helpers_removed():
    for name in ("clone_model", "parameter_arrays", "gradient_arrays", "zero_gradients", "GradientSet"):
        assert not hasattr(sfda2.model, name), name


def test_vector_softmax_forms_removed():
    # the row kernels are the one copy; a vector is a one-row array
    for name in ("softmax", "logsumexp"):
        assert not hasattr(sfda2.numerics, name), name


def test_psd_repair_removed():
    # the class-covariance merge is PSD up to rounding, so nothing clamps it
    assert not hasattr(sfda2.numerics, "psd_repair")


def test_cholesky_jitter_ladder_removed():
    # a PSD covariance factors by Cholesky or, when singular, by eigh
    assert not hasattr(sfda2.numerics, "_JITTERS")


def test_second_class_statistics_merge_removed():
    # the oracles control plants its defect in update_class_stats' input
    assert not hasattr(sfda2.verify, "_stream_with_doubled_correction")


# Defaulted parameters that no src/ call passes, kept on purpose, with why.
UNPASSED_ALLOWED = {
    ("run_cli", "argv"): "the entry point: main() calls it with none, tests with a list",
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether `call` may pass the parameter `name` at positional `index`
    (None for keyword-only); a *args or **kwargs argument may pass any."""
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return index is not None and index >= position
    if index is not None and index < len(call.args):
        return True
    return any(keyword.arg in (name, None) for keyword in call.keywords)


def test_every_defaulted_parameter_is_passed_by_some_src_call():
    # A parameter that only tests pass is an option no program path uses.
    # Functions and classes in sfda2.__all__ are the public API and are
    # left out; a call is matched to a definition by name alone.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unpassed = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                owned = [(None, node)]
            elif isinstance(node, ast.ClassDef):
                owned = [(node.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for owner, function in owned:
                if (owner or function.name) in sfda2.__all__:
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
                offset = 1 if owner and not static else 0  # self or cls
                call_name = owner if function.name == "__init__" else function.name
                args = function.args
                positional = args.posonlyargs + args.args
                first_defaulted = len(positional) - len(args.defaults)
                defaulted = [(p.arg, i - offset) for i, p in enumerate(positional) if i >= first_defaulted]
                defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                for name, index in defaulted:
                    if (function.name, name) in UNPASSED_ALLOWED:
                        continue
                    if not any(_callee(c) == call_name and _passes(c, name, index) for c in calls):
                        unpassed.append(f"{owner + '.' if owner else ''}{function.name}({name})")
    assert unpassed == []
