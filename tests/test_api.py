import sfda2
import sfda2.model
import sfda2.numerics


def test_every_exported_name_resolves():
    for name in sfda2.__all__:
        assert hasattr(sfda2, name), name


def test_removed_names_not_exported():
    removed = ("AffinityWeights", "NeighborSet", "ScoreBank", "pseudo_label")
    for name in removed:
        assert name not in sfda2.__all__
        assert not hasattr(sfda2, name)


def test_per_array_model_helpers_removed():
    for name in ("clone_model", "parameter_arrays", "gradient_arrays", "zero_gradients", "GradientSet"):
        assert not hasattr(sfda2.model, name), name


def test_vector_softmax_forms_removed():
    # the row kernels are the one copy; a vector is a one-row array
    for name in ("softmax", "logsumexp"):
        assert not hasattr(sfda2.numerics, name), name


def test_psd_repair_removed():
    # the class-covariance merge is PSD up to rounding, so nothing clamps it
    assert not hasattr(sfda2.numerics, "psd_repair")
