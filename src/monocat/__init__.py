"""Explicit terms for (symmetric) monoidal categories, with a
coherence-based normal form, rewriting tactics, matrix/relation
semantic oracles and string-diagram rendering."""

from types import ModuleType as _ModuleType

from .coherence import (
    Equal,
    NormalForm,
    NotDecided,
    Sheet,
    canonicalize,
    dump_normal_form,
    flatten_object,
    monoidal_eq,
    sheet_of_term,
)
from .parser import (
    ParseError,
    RewriteRule,
    RuleFile,
    SourceSpan,
    parse_expr,
    parse_rules,
    parse_signature,
    print_expr,
    print_obj,
)
from .render import LayoutNode, RenderConfig, emit_svg, emit_tikz, layout
from .tactics import (
    NotProved,
    Proved,
    assoc_rw,
    cancel_isos,
    cat_easy,
    cat_simpl,
    foliate,
    is_stack,
    partner,
    weak_foliate,
)
from .terms import (
    Assoc,
    AssocInv,
    Braid,
    BraidInv,
    CatError,
    Comp,
    CompositionMismatch,
    DuplicateName,
    Id,
    Inv,
    LUnit,
    LUnitInv,
    LevelViolation,
    MorDecl,
    MorExpr,
    MorGen,
    MorType,
    NotAnIso,
    NotInvertible,
    ObjExpr,
    ObjGen,
    ObjTensor,
    RUnit,
    RUnitInv,
    Signature,
    Tensor,
    TypeMismatch,
    UNIT,
    UndeclaredName,
    Unit,
    UnknownLevel,
    iso_inverse,
    structural_atoms,
    typecheck,
)


def _lazy_submodule(name: str):
    """Submodule ``name``, registered in ``sys.modules`` now and run on its
    first attribute access."""

    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The semantic oracles need numpy, so their module runs on first use.
semantics = _lazy_submodule("semantics")
_SEMANTICS = ("MatrixInstance", "RelInstance", "braid_matrix", "check_coherence", "eval_matrix",
              "eval_rel", "mat_equiv", "matrix_instance", "rel_instance")


def __getattr__(name: str):
    if name in _SEMANTICS:
        return getattr(semantics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name, value in globals().items() if not name.startswith("_")
                  and not isinstance(value, _ModuleType)] + [*_SEMANTICS])
__version__ = "0.1.0"
