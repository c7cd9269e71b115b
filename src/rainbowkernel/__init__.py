"""Kernel preprocessing for four (di)graph packing/hitting problems via the
rainbow-matching-or-cover dichotomy on edge-colored multigraphs.

The exported names load on first use (PEP 562): `rainbowkernel.graphs` or
`rainbowkernel.instances` alone does not import the kernel modules."""
from importlib import import_module

_EXPORTS = {
    "graphs": ("ColoredEdge", "ColoredMultigraph", "Tournament", "UndirectedGraph",
               "colored_edge", "enumerate_induced_p3", "enumerate_triangles",
               "make_colored_multigraph", "topological_order"),
    "instances": ("GeneratorConfig", "InstanceSpec", "generate_instance", "parse_instance",
                  "serialize_instance"),
    "p3": ("greedy_localize_p3", "kernelize_p3", "lift_hitting_set_p3"),
    "rainbow": ("ColorCover", "RainbowMatching", "RainbowOracle", "rainbow_or_cover",
                "verify_outcome"),
    "report": ("Decided", "KernelOutput", "KernelReport"),
    "tournament": ("choose_delta", "greedy_localize_triangles", "kernelize_tournament",
                   "lift_fvs", "repack_via_allocation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
