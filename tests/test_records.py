"""Record classes (``terms.record``) against their ``@dataclass`` twins, and
what importing the package compiles."""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from gen import random_matrix_instance, random_rel_instance, random_term, std_sig
from reference_records import TWINS
from monocat import cli, coherence, parser, render, semantics, tactics, terms
from monocat.parser import ParseError, parse_expr, parse_rules, parse_signature

BACKEND_SIG_TEXT = """
category symmetric
object A
object B
mor f : A -> B
iso k : A -> A

backend matrix
dim A = 2
dim B = 1
mat f = [[1, 2i]]
mat k = [[0, 1], [1, 0]]
inv k = [[0, 1], [1, 0]]

backend rel
size A = 2
size B = 3
rel f = {(0,1), (1,2)}
rel k = {(0,1), (1,0)}
"""

#: One text per atom kind that random terms may miss
ATOM_TEXTS = ["alpha[A,B,C] ; alpha_inv[A,B,C]", "lunit[A] ; lunit_inv[A]",
              "runit[B] ; runit_inv[B]", "braid[A,B] ; braid_inv[A,B]", "k ; inv(k)", "s ; e"]


def _roots() -> list:
    """Seeded values from every layer that makes records."""

    rng, sig = Random(17), std_sig()
    roots = [sig, terms.UNIT, render.RenderConfig(), render.RenderConfig(unit=20.0, color=True)]
    terms_ = [parse_expr(text, sig) for text in ATOM_TEXTS]
    terms_ += [random_term(rng, sig, max_leaves=rng.randint(1, 8)) for _ in range(40)]
    for t in terms_:
        sheet = coherence.sheet_of_term(t, sig)
        roots += [t, terms.typecheck(t, sig), sheet, coherence.monoidal_eq(t, t, sig),
                  render.layout(t, sig), tactics.cat_easy(t, t, sig)]
    roots.append(coherence.monoidal_eq(parse_expr("e ; s", sig),
                                       parse_expr("lunit_inv[A] ; (s * e) ; runit[A]", sig), sig))
    roots.append(tactics.cat_easy(parse_expr("u", sig), parse_expr("u ; u", sig), sig))
    roots.append(parse_rules("var ?x : ?a -> ?b\nrule idr : ?x ; id[?b] => ?x\n"
                             "rule fg : f ; g => f ; g\n", sig))
    try:
        parse_expr("f ; ", sig)
    except ParseError as exc:
        roots.append(exc.span)
    backends = parse_signature(BACKEND_SIG_TEXT)
    roots += [backends, semantics.matrix_instance(backends), semantics.rel_instance(backends),
              random_matrix_instance(rng, sig), random_rel_instance(rng, sig),
              semantics.check_coherence(semantics.rel_instance(backends), backends, Random(3))]
    roots += [cli.ReplState(sig), cli.ReplState(sig, terms_[0], [terms_[1]], ["x"], True)]
    return roots


def _records(roots) -> dict[type, list]:
    """Every record reachable from ``roots``, by class."""

    found: dict[type, list] = {}
    seen: set[int] = set()
    todo = list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) in TWINS:
            found.setdefault(type(x), []).append(x)
            todo += [getattr(x, f.name) for f in dataclasses.fields(x)]
        elif isinstance(x, (tuple, list)):
            todo += x
        elif isinstance(x, dict):
            todo += x.values()
    return found


@pytest.fixture(scope="module")
def samples():
    roots = _roots()  # kept alive: samples are found by id
    yield _records(roots)


def _twin(value, deep: bool = False):
    """``value`` as an instance of its twin, built without ``__init__``; with
    ``deep``, nested records (through tuples, lists and dicts) become twins too."""

    convert = _deep if deep else (lambda v: v)
    twin = object.__new__(TWINS[type(value)])
    twin.__dict__.update({f.name: convert(getattr(value, f.name))
                          for f in dataclasses.fields(value)})
    return twin


def _deep(x):
    if type(x) in TWINS:
        return _twin(x, deep=True)
    if type(x) in (tuple, list):
        return type(x)(map(_deep, x))
    if type(x) is dict:
        return {k: _deep(v) for k, v in x.items()}
    return x


def _outcome(call):
    """What ``call()`` returns, or the class and text of what it raises."""

    try:
        return "returned", call()
    except Exception as exc:  # compared, whichever it is
        return type(exc), str(exc)


def _field_spec(cls) -> list[tuple]:
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
             f.kw_only, dict(f.metadata)) for f in dataclasses.fields(cls)]


def test_every_record_class_has_a_twin_and_samples(samples):
    declared = {cls for module in (terms, coherence, parser, render, semantics, tactics, cli)
                for cls in vars(module).values()
                if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__}
    assert declared == set(TWINS)
    assert {cls.__name__ for cls in TWINS if cls not in samples} == set()
    assert all(cls.__repr__ is terms._record_repr for cls in TWINS)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls, samples):
    twin_cls, values = TWINS[cls], samples[cls][:10]
    params = twin_cls.__dataclass_params__
    assert _field_spec(cls) == _field_spec(twin_cls)
    assert cls.__match_args__ == twin_cls.__match_args__
    if not issubclass(cls, terms.ObjExpr):  # objects are made by ObjExpr.__new__
        assert str(inspect.signature(cls)) == str(inspect.signature(twin_cls))
    assert (cls.__hash__ is None) == (twin_cls.__hash__ is None)
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    for v in values:
        t = _twin(v)
        assert repr(v) == repr(_deep(v))
        assert _outcome(lambda: repr(dataclasses.asdict(v))) == \
            _outcome(lambda: repr(dataclasses.asdict(_deep(v))))
        if params.eq:  # the record's own __eq__ and __hash__, not a base class's
            assert cls.__hash__ is None or hash(v) == hash(t)
            assert (v == 0, v != 0, v.__eq__(t)) == (t == 0, t != 0, NotImplemented)
            for w in values:
                assert _outcome(lambda: v == w) == _outcome(lambda: t == _twin(w))
        for w in values:
            for name in names:
                changes = {name: getattr(w, name)}
                assert _outcome(lambda: repr(dataclasses.replace(v, **changes))) == \
                    _outcome(lambda: repr(dataclasses.replace(t, **changes)))
        target, twin_target = (v, t) if params.frozen else (copy.copy(v), copy.copy(t))
        for name in [*(f.name for f in dataclasses.fields(cls)), "not_a_field"]:
            assert _outcome(lambda: setattr(target, name, 0)) == \
                _outcome(lambda: setattr(twin_target, name, 0))
            assert _outcome(lambda: delattr(target, name)) == \
                _outcome(lambda: delattr(twin_target, name))
        args = [getattr(v, name) for name in names]
        for call_args, call_kw in [((), {}), (args, {}), (args[:-1], {}), ((*args, 0), {}),
                                   (args, {"not_a_field": 0}), (args[:1], dict(zip(names, args))),
                                   ((), dict(zip(names, args)))]:
            assert _outcome(lambda: repr(cls(*call_args, **call_kw))) == \
                _outcome(lambda: repr(twin_cls(*call_args, **call_kw)))


def test_node_fields_are_the_fields_in_order(samples):
    # node_fields reads the instance dict: every node, however made, fills it
    # in field order and holds nothing else there
    nodes = [cls for cls in TWINS if issubclass(cls, (terms.MorExpr, terms.ObjExpr))]
    assert set(nodes) == {*terms.MorExpr.__subclasses__(), *terms.ObjExpr.__subclasses__()}
    for cls in nodes:
        for v in samples[cls][:10]:
            for x in (v, pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v),
                      dataclasses.replace(v)):
                assert terms.node_fields(x) == tuple(getattr(x, f.name)
                                                     for f in dataclasses.fields(x))


def test_frozen_record_errors_name_the_field():
    term = terms.Tensor(terms.MorGen("f"), terms.Id(terms.UNIT))
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'top'"):
        term.top = term
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'name'"):
        del terms.ObjGen("A").name
    with pytest.raises(TypeError, match=r"^ObjTensor.__init__\(\) missing 1 required positional "
                                        r"argument: 'right'$"):
        terms.ObjTensor(terms.UNIT)


def test_record_inside_itself_prints_as_dots():
    node, twin = render.LayoutNode("diagram", 0.0, 0.0, 1.0, 1.0), TWINS[render.LayoutNode](
        "diagram", 0.0, 0.0, 1.0, 1.0)
    for n in (node, twin):
        n.children.append(n)
        n.label = n
    assert repr(node) == repr(twin) and "label=..., " in repr(node)


def test_import_compiles_no_record_methods():
    # dataclass method generation compiles source text at import (194 methods
    # once); record methods are closures, so nothing from dataclasses.py may
    # compile.  namedtuple and typing compile a few of their own, which stay.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\n"
            "compiled = []\n"
            "def hook(event, args):\n"
            "    if event == 'compile':\n"
            "        compiled.append(sys._getframe(1).f_code.co_filename)\n"
            "sys.addaudithook(hook)\n"
            "import monocat.cli\n"
            "print(sum(name.endswith('dataclasses.py') for name in compiled), len(compiled),\n"
            "      'numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == "0" and int(out[1]) > 0 and out[2] == "False", out

