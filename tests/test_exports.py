import biorth
import biorth.manifold
import biorth.problems

# Names deleted from the package: nothing inside it calls them any more.
DELETED = (
    (biorth, "is_on_manifold"),
    (biorth.manifold, "is_on_manifold"),
    (biorth.problems, "_MatrixPairProblem"),
    (biorth.manifold, "_random_point"),
    (biorth.manifold, "_random_tangent"),
    (biorth.manifold, "_frozen"),
    (biorth.manifold.BiorthogonalManifold, "zero_tangent"),
    (biorth.manifold.EuclideanManifold, "zero_tangent"),
    (biorth.manifold.BiorthogonalManifold, "metric"),
    (biorth.manifold.EuclideanManifold, "metric"),
    (biorth.manifold.BiorthogonalManifold, "inner_transported"),
    (biorth.manifold.EuclideanManifold, "inner_transported"),
    (biorth.manifold.BiorthogonalManifold, "feasibility_error"),
    (biorth.manifold.EuclideanManifold, "feasibility_error"),
    (biorth.manifold.TangentPair, "as_ambient"),
    (biorth.manifold.AmbientPair, "as_ambient"),
    (biorth.manifold.BiorthogonalManifold, "transport"),
    (biorth.manifold.EuclideanManifold, "transport"),
    (biorth, "metric"),
    (biorth.manifold, "metric"),
    (biorth.manifold.BiorthogonalManifold, "random_tangent"),
    (biorth.manifold.EuclideanManifold, "random_tangent"),
    (biorth.manifold.BiorthogonalManifold, "random_point"),
    (biorth.manifold.EuclideanManifold, "random_point"),
)


def test_every_exported_name_resolves():
    missing = [name for name in biorth.__all__ if not hasattr(biorth, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(biorth.__all__) == len(set(biorth.__all__))


def test_deleted_names_are_gone():
    for module, name in DELETED:
        assert name not in getattr(module, "__all__", ())
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_problems_expose_only_cost_grad():
    for cls in (biorth.NearestPairProblem, biorth.PenaltyProblem, biorth.FunmapProblem):
        assert hasattr(cls, "cost_grad")
        assert not hasattr(cls, "cost")
        assert not hasattr(cls, "euclidean_gradient")
