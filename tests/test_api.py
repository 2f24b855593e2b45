import sfda2


def test_every_exported_name_resolves():
    for name in sfda2.__all__:
        assert hasattr(sfda2, name), name


def test_removed_names_not_exported():
    removed = ("AffinityWeights", "NeighborSet", "ScoreBank", "pseudo_label")
    for name in removed:
        assert name not in sfda2.__all__
        assert not hasattr(sfda2, name)
