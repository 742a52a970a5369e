"""Standard ``@dataclass`` twins of every record class of the package.

Each twin is its record class declared as a plain dataclass: same name,
fields, defaults and flags (``frozen``, ``eq``, ``init``), and the record's
own ``__post_init__``.  Object and atom classes are records with
``init=False`` and ``eq=False``: ``Node.__new__`` interns them, binding
their fields as a generated ``__init__`` would (so their twins have one),
and their ``==`` is ``is``.  A twin's methods are generated by
:mod:`dataclasses`, and ``tests/test_records.py`` compares the methods
``terms.record`` gives each record class with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from monocat import cli, coherence, parser, render, semantics, tactics, terms


# terms.py


@dataclass(frozen=True, eq=False)
class Unit:
    pass


@dataclass(frozen=True, eq=False)
class ObjGen:
    name: str


@dataclass(frozen=True, eq=False)
class ObjTensor:
    left: ObjExpr
    right: ObjExpr


@dataclass(frozen=True, eq=False)
class ObjVar:
    name: str


@dataclass(frozen=True, eq=False)
class MorGen:
    name: str


@dataclass(frozen=True, eq=False)
class Id:
    obj: ObjExpr


@dataclass(frozen=True, eq=False)
class Comp:
    first: MorExpr
    second: MorExpr


@dataclass(frozen=True, eq=False)
class Tensor:
    top: MorExpr
    bottom: MorExpr


@dataclass(frozen=True, eq=False)
class Assoc:
    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True, eq=False)
class AssocInv:
    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True, eq=False)
class LUnit:
    a: ObjExpr


@dataclass(frozen=True, eq=False)
class LUnitInv:
    a: ObjExpr


@dataclass(frozen=True, eq=False)
class RUnit:
    a: ObjExpr


@dataclass(frozen=True, eq=False)
class RUnitInv:
    a: ObjExpr


@dataclass(frozen=True, eq=False)
class Braid:
    a: ObjExpr
    b: ObjExpr


@dataclass(frozen=True, eq=False)
class BraidInv:
    a: ObjExpr
    b: ObjExpr


@dataclass(frozen=True, eq=False)
class Inv:
    name: str


@dataclass(frozen=True, eq=False)
class MorVar:
    name: str


@dataclass(frozen=True)
class MorType:
    dom: ObjExpr
    cod: ObjExpr


@dataclass(frozen=True)
class MorDecl:
    name: str
    dom: ObjExpr
    cod: ObjExpr
    iso: bool = False


@dataclass(frozen=True)
class BackendBlock:
    kind: str
    entries: tuple[tuple[int, str], ...]


@dataclass
class Signature:
    level: str = "symmetric"
    objects: tuple[str, ...] = ()
    morphisms: tuple[MorDecl, ...] = ()
    aliases: dict[str, str] = field(default_factory=dict)
    backend_blocks: tuple[BackendBlock, ...] = ()
    __post_init__ = terms.Signature.__post_init__


# coherence.py


@dataclass(frozen=True)
class BoxSlot:
    label: str
    ins: WireList
    outs: WireList


@dataclass(frozen=True)
class Sheet:
    input: WireList
    layers: tuple[Layer, ...]


@dataclass(frozen=True)
class NormalForm:
    input: WireList
    output: WireList
    layers: tuple[Layer, ...]


@dataclass(frozen=True)
class Equal:
    normal_form: NormalForm


@dataclass(frozen=True)
class NotDecided:
    left: NormalForm
    right: NormalForm


# parser.py


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    start: int
    end: int


@dataclass(frozen=True)
class RewriteRule:
    name: str
    metavars: tuple[tuple[str, MorType], ...]
    lhs: MorExpr
    rhs: MorExpr


@dataclass(frozen=True)
class RuleFile:
    rules: tuple[RewriteRule, ...]


# render.py


@dataclass
class RenderConfig:
    unit: float = 28.0
    box_min_width: float = 54.0
    box_padding: float = 12.0
    hgap: float = 34.0
    vgap: float = 16.0
    font_size: float = 12.0
    stroke_width: float = 1.4
    group_stroke_width: float = 1.0
    boundary_stub: float = 26.0
    margin: float = 10.0
    color: bool = False
    atom_boxes: bool = True
    __post_init__ = render.RenderConfig.__post_init__


@dataclass
class LayoutNode:
    kind: str
    x: float
    y: float
    w: float
    h: float
    label: str = ""
    in_ports: list[Port] = field(default_factory=list)
    out_ports: list[Port] = field(default_factory=list)
    children: list["LayoutNode"] = field(default_factory=list)
    wires: list[list[tuple[float, float]]] = field(default_factory=list)
    emphasized: bool = False
    depth: int = 0


# semantics.py


@dataclass
class MatrixInstance:
    sig: Signature
    dim: dict[str, int]
    mat: dict[str, np.ndarray]
    inv_mat: dict[str, np.ndarray] = field(default_factory=dict)
    tolerance: float = 1e-9
    __post_init__ = semantics.MatrixInstance.__post_init__


@dataclass
class RelInstance:
    sig: Signature
    size: dict[str, int]
    rel: dict[str, frozenset]
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    __post_init__ = semantics.RelInstance.__post_init__


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    deviation: float


# tactics.py


@dataclass(frozen=True)
class TraceStep:
    tactic: str
    term: str


@dataclass(frozen=True)
class Proved:
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class NotProved:
    trace: tuple[TraceStep, ...]


# cli.py


@dataclass
class ReplState:
    sig: Signature
    term: MorExpr | None = None
    undo_stack: list[MorExpr] = field(default_factory=list)
    transcript: list[str] = field(default_factory=list)
    done: bool = False


#: Each record class -> its twin here
TWINS = {getattr(module, name): globals()[name] for module, names in (
    (terms, "Unit ObjGen ObjTensor ObjVar MorGen Id Comp Tensor Assoc AssocInv LUnit LUnitInv "
            "RUnit RUnitInv Braid BraidInv Inv MorVar MorType MorDecl BackendBlock Signature"),
    (coherence, "BoxSlot Sheet NormalForm Equal NotDecided"),
    (parser, "SourceSpan RewriteRule RuleFile"),
    (render, "RenderConfig LayoutNode"),
    (semantics, "MatrixInstance RelInstance ConditionResult"),
    (tactics, "TraceStep Proved NotProved"),
    (cli, "ReplState"),
) for name in names.split()}
