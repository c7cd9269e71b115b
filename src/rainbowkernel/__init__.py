"""Kernel preprocessing for four (di)graph packing/hitting problems via the
rainbow-matching-or-cover dichotomy on edge-colored multigraphs."""

from .graphs import (ColoredEdge, ColoredMultigraph, Tournament,
                     UndirectedGraph, colored_edge, enumerate_induced_p3,
                     enumerate_triangles, make_colored_multigraph,
                     topological_order)
from .instances import (GeneratorConfig, InstanceSpec, generate_instance,
                        parse_instance, serialize_instance)
from .p3 import greedy_localize_p3, kernelize_p3, lift_hitting_set_p3
from .rainbow import (ColorCover, RainbowMatching, RainbowOracle,
                      rainbow_or_cover, verify_outcome)
from .report import Decided, KernelOutput, KernelReport
from .tournament import (choose_delta, greedy_localize_triangles,
                         kernelize_tournament, lift_fvs,
                         repack_via_allocation)

__all__ = [
    "ColorCover", "ColoredEdge", "ColoredMultigraph", "Decided",
    "GeneratorConfig", "InstanceSpec", "KernelOutput", "KernelReport",
    "RainbowMatching", "RainbowOracle", "Tournament", "UndirectedGraph",
    "choose_delta", "colored_edge", "enumerate_induced_p3",
    "enumerate_triangles", "generate_instance", "greedy_localize_p3",
    "greedy_localize_triangles", "kernelize_p3", "kernelize_tournament",
    "lift_fvs", "lift_hitting_set_p3", "make_colored_multigraph", "parse_instance",
    "rainbow_or_cover", "repack_via_allocation", "serialize_instance",
    "topological_order", "verify_outcome",
]
