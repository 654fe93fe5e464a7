"""The defaulted parameters of package functions that no call in the
package passes. A setting that every caller leaves at one value should be
a constant, so each such parameter is pinned here with the reason it
stays, and a new one fails here instead of waiting for a review.

Calls are matched to a def by the callee's last name, ``f(...)`` or
``obj.f(...)``, so defs that share a name share their calls; a method's
``self`` or ``cls`` is not counted as a position. A call passes a
parameter by keyword, or by position when it has more positional
arguments than the parameter's index; a call with ``*args`` passes every
position and one with ``**kwargs`` every keyword. The defs are the ones
that ``test_default_reach`` walks."""

import ast
from collections import defaultdict

from test_default_reach import PACKAGE, function_defs

UNVARIED = {
    "cli.main(argv)": "the console entry point leaves it None, so argparse reads sys.argv; tests pass a list",
}


def calls_by_name(trees) -> dict:
    """Callee's last name -> every ast.Call of that name in ``trees``."""
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Name):
                    calls[callee.id].append(node)
                elif isinstance(callee, ast.Attribute):
                    calls[callee.attr].append(node)
    return calls


def passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name``, at positional
    ``index`` or keyword-only when ``index`` is None."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)


def unvaried_parameters() -> set:
    """'module.qualname(parameter)' of every defaulted parameter that no
    call in the package passes."""
    calls = calls_by_name(ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py")))
    found = set()
    for _, node, qualname in function_defs():
        args = node.args
        positional = [arg.arg for arg in args.posonlyargs + args.args]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        defaulted = [(name, i) for i, name in enumerate(positional)][len(positional) - len(args.defaults):]
        defaulted += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        for name, index in defaulted:
            if not any(passes(call, name, index) for call in calls[node.name]):
                found.add(f"{qualname}({name})")
    return found


def test_every_unvaried_defaulted_parameter_is_pinned():
    assert sorted(unvaried_parameters()) == sorted(UNVARIED)


def test_the_scan_sees_positional_keyword_and_starred_calls():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def g(self, x=0):\n        pass\n"
        "f(0, 1)\nf(0, d=4)\nK().g()\n"
    )
    calls = calls_by_name([ast.parse(source)])
    assert [passes(call, "b", 1) for call in calls["f"]] == [True, False]
    assert [passes(call, "c", 2) for call in calls["f"]] == [False, False]
    assert [passes(call, "d", None) for call in calls["f"]] == [False, True]
    assert not passes(calls["g"][0], "x", 0)
    starred = ast.parse("f(*args)\nf(**kw)").body
    assert passes(starred[0].value, "c", 2) and not passes(starred[0].value, "d", None)
    assert passes(starred[1].value, "c", 2) and passes(starred[1].value, "d", None)
