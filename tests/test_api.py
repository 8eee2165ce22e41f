"""The package's public names: `__all__` lists exactly what it exports."""
import blocksketch as bs


def test_all_is_unique_and_resolves():
    assert len(bs.__all__) == len(set(bs.__all__))
    missing = [name for name in bs.__all__ if not hasattr(bs, name)]
    assert missing == []


def test_removed_names_stay_removed():
    for name in ("certificate_check", "SampleMask"):
        assert name not in bs.__all__
        assert not hasattr(bs, name)
