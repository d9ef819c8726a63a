"""Exact arithmetic of supernatural numbers, their sieves, and points.

Each public name is listed once, in _EXPORTS.  Its submodule is imported
on the first read of a name (PEP 562), which then stays in this namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "cones": (
        "BZPair",
        "PositiveRational",
        "cone_contains",
        "cone_enumerate",
        "cones_isomorphic",
        "frac_to_pair",
        "pair_to_frac",
    ),
    "errors": (
        "ConstructionStuck",
        "NonCoprimeGenerators",
        "NotIncomparable",
        "NotSeparable",
        "ParseError",
        "SearchBudgetExceeded",
        "SteinitzError",
        "UnsupportedProduct",
    ),
    "oracle": (
        "ChainPoint",
        "MemberEvidence",
        "PointReport",
        "RankOneReport",
        "TruncatedCone",
        "additively_closed",
        "chain_from_points",
        "check_point_conditions",
        "verify_member_decision",
    ),
    "sieve": (
        "Family",
        "Sieve",
        "SMonoidPresentation",
        "smonoid_contains",
        "smonoid_to_sieve",
    ),
    "supernat": (
        "INF",
        "ExpMap",
        "FractionalSupernatural",
        "PrimeSet",
        "Supernatural",
        "int_divides",
        "unit_residues",
    ),
    "topology": (
        "PointClass",
        "SeparationWitness",
        "incomparable",
        "member",
        "member_intersection",
        "separating_side",
        "separating_sieves",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how `from steinitz import oracle` reaches the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
