import paramhom

PUBLIC = [
    "BehaviorType", "ConstructibleRSpace", "DecompositionError",
    "DecoratedDiagram", "DecoratedPoint", "Decoration", "DualityError",
    "ExtendedType", "PrimeField", "Rectangle", "SimplicialComplex",
    "StabilityRecord", "ZigzagModule", "__version__", "all_diagrams",
    "bottleneck_distance", "cohomology_diagrams", "decompose",
    "extended_diagrams", "extended_from_parametrized",
    "levelset_zigzag", "measure_profile",
    "stability_report", "translate",
]


def test_public_surface_is_pinned():
    assert sorted(paramhom.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(paramhom, name) is not None, name
