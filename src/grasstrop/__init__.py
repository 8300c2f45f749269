"""Exact tree-indexed tropical and valuation data for Grassmannians of planes.

The package computes, for labeled trivalent trees on n leaves: membership
and reconstruction for the space of tree dissimilarity vectors, the value
semigroup of edge weightings with its graded counts, straightening and
two families of valuations on Pluecker polynomials, and the binomial
initial ideal with an exact dimension check.  All arithmetic is exact.

Importing the package imports none of its modules; the first read of a
public name loads them all (see `__getattr__`).
"""

# Each library module and the public names it exports, in load order.
_EXPORTS = {
    "trees": (
        "EdgeId", "LabeledTree", "contract_edge", "double_factorial", "enumerate_trivalent",
        "leaf_path", "parse_edge_order", "tree_equal", "tree_from_json", "tree_from_newick",
        "tree_to_json", "tree_to_newick",
    ),
    "tropical": (
        "DissimilarityVector", "EdgeWeighting", "QuartetWitness", "cone_of", "dissimilarity",
        "is_tropical_point", "leaf_pairs", "reconstruct_tree",
    ),
    "semigroup": (
        "PairMultiset", "SigmaWeight", "decompose", "gorenstein_witness_check", "graded_count",
        "in_semigroup", "invariant_dim", "omega", "pieri_dim",
    ),
    "plucker": (
        "PlueckerMonomial", "PlueckerPolynomial", "format_polynomial", "is_noncrossing", "p",
        "parse_polynomial", "straighten", "three_term_relation",
    ),
    "valuation": (
        "ValuationMatrix", "ValueVector", "monomial_weight", "quasi_valuation_weight",
        "rank_valuation", "tropical_weight", "valuation_matrix",
    ),
    "ideals": (
        "EdgeMonomial", "HilbertReport", "initial_form", "initial_ideal_hilbert_check",
        "internal_indicator", "monomial_map", "toric_kernel_membership",
    ),
    "linalg": ("exact_rank",),
}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    """Bind every public name on the first read of any of them (PEP 562).

    The modules load in the order of `_EXPORTS` and all names bind at
    once, so after one read the namespace is the one an eager import of
    every module would give.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    public = {}
    for module, names in _EXPORTS.items():
        mod = import_module(f".{module}", __name__)
        public.update((n, getattr(mod, n)) for n in names)
    globals().update(public)
    return public[name]
