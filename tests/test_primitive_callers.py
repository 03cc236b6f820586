"""Source check: every kind in the engine's primitive table has a caller in
`src/` that records it, so a primitive no code path uses cannot stay in
the table (its forward, VJP and test case would be kept for nothing).

A kind is recorded by a `.record("kind", ...)` call, or by a call
`tape.<wrapper>(...)` of a `Tape` method that records it.  The wrappers'
own `self.record` calls do not count: a wrapper nothing calls records
nothing."""

import ast
import pathlib

from ndfreg import diffengine as de

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ndfreg"


def _recorded_kind(call):
    """The literal kind of a `.record(kind, ...)` call, else None."""
    if isinstance(call.func, ast.Attribute) and call.func.attr == "record" and call.args:
        kind = call.args[0]
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            return kind.value
    return None


def tape_wrappers(tree):
    """{method: kind} of the `Tape` methods whose body records one kind."""
    wrappers = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Tape":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name != "record":
                    kinds = {_recorded_kind(c) for c in ast.walk(fn) if isinstance(c, ast.Call)}
                    kinds.discard(None)
                    if len(kinds) == 1:
                        wrappers[fn.name] = kinds.pop()
    return wrappers


def recorded_kinds(trees, wrappers):
    """Kinds recorded by the calls in `trees` outside the wrappers."""
    kinds = set()
    for tree in trees:
        inside = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Tape":
                inside |= {id(c) for fn in cls.body if getattr(fn, "name", None) in wrappers
                           for c in ast.walk(fn)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in inside:
                continue
            kind = _recorded_kind(call)
            func = call.func
            if (kind is None and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and func.value.id == "tape"):
                kind = wrappers.get(func.attr)
            if kind is not None:
                kinds.add(kind)
    return kinds


def test_every_primitive_kind_has_a_recording_caller():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    wrappers = tape_wrappers(ast.parse((SRC / "diffengine.py").read_text(encoding="utf-8")))
    recorded = recorded_kinds(trees, wrappers)
    assert sorted(set(de._PRIMITIVES) - recorded) == []
    assert recorded <= set(de._PRIMITIVES)


def test_check_flags_a_wrapper_nobody_calls():
    """A table kind whose only record is its own `Tape` wrapper is flagged;
    a call of the wrapper, or a direct record, counts."""
    engine = ast.parse(
        "class Tape:\n"
        "    def record(self, kind, inputs, payload=None): ...\n"
        "    def mul(self, a, b):\n"
        "        return self.record('mul', (a, b))\n"
        "    def add(self, a, b):\n"
        "        return self.record('add', (a, b))\n"
    )
    wrappers = tape_wrappers(engine)
    assert wrappers == {"mul": "mul", "add": "add"}
    assert recorded_kinds([engine], wrappers) == set()
    caller = ast.parse("def f(tape, x):\n    return tape.add(x, tape.record('ncc', (x,), x))\n")
    assert recorded_kinds([engine, caller], wrappers) == {"add", "ncc"}
