import pytest

from hraidlab import FailureModel, HraidConfig, ValidationError


def test_valid_config_properties():
    cfg = HraidConfig(12, 12, 1, 2)
    assert (cfg.n, cfg.m, cfg.k, cfg.ell) == (12, 12, 1, 2)
    assert cfg.total_disks == 144


def test_defaults_are_no_redundancy():
    cfg = HraidConfig(3, 5)
    assert cfg.k == 0 and cfg.ell == 0


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(n_nodes=0, disks_per_node=4), "n_nodes"),
        (dict(n_nodes=4, disks_per_node=0), "disks_per_node"),
        (dict(n_nodes=4, disks_per_node=4, inter_tolerance=4), "inter_tolerance"),
        (dict(n_nodes=4, disks_per_node=4, inter_tolerance=-1), "inter_tolerance"),
        (dict(n_nodes=4, disks_per_node=8, intra_tolerance=4), "intra_tolerance"),
        (dict(n_nodes=4, disks_per_node=8, intra_tolerance=-1), "intra_tolerance"),
        (dict(n_nodes=2, disks_per_node=8, inter_tolerance=2), "below n_nodes"),
        (dict(n_nodes=8, disks_per_node=4, inter_tolerance=2, intra_tolerance=2),
         "below disks_per_node"),
        (dict(n_nodes=4.5, disks_per_node=4), "n_nodes must be an integer"),
        (dict(n_nodes=True, disks_per_node=4), "n_nodes must be an integer"),
        (dict(n_nodes="4", disks_per_node=4), "n_nodes must be an integer"),
        (dict(n_nodes=4, disks_per_node=4.0), "disks_per_node must be an integer"),
        (dict(n_nodes=4, disks_per_node=4, inter_tolerance=None), "inter_tolerance"),
        (dict(n_nodes=4, disks_per_node=4, intra_tolerance=False), "intra_tolerance"),
    ],
)
def test_invalid_config_names_violated_bound(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        HraidConfig(**kwargs)


def test_check_strips_must_leave_a_data_strip():
    # k + l == M leaves no data strip in the node row
    with pytest.raises(ValidationError):
        HraidConfig(4, 2, 1, 1)
    HraidConfig(4, 3, 1, 1)  # one data strip: fine


def test_failure_model_defaults():
    fm = FailureModel()
    assert fm.disk_rate == 1e-6
    assert fm.controller_rate == 0.0
    assert fm.disk_mttf_hours == 1e6


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(disk_rate=0.0),
        dict(disk_rate=-1e-6),
        dict(controller_rate=-1e-9),
        dict(disk_rate=float("nan")),
        dict(disk_rate=float("inf")),
        dict(disk_rate="1e-6"),
        dict(controller_rate=float("nan")),
        dict(controller_rate=float("inf")),
        dict(disk_rate=1e-320),
        dict(disk_rate=9.9e-31),
        dict(disk_rate=1.1e30),
        dict(controller_rate=1.1e30),
    ],
)
def test_failure_model_rejects_bad_rates(kwargs):
    with pytest.raises(ValidationError):
        FailureModel(**kwargs)


def test_failure_model_accepts_the_edges_of_the_rate_domain():
    FailureModel(disk_rate=1e-30, controller_rate=1e30)
    FailureModel(disk_rate=1e30, controller_rate=0.0)
