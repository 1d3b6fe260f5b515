import csv
import io
import math

import numpy as np
import pytest

from resguard import plant
from resguard.plant import (
    Column,
    CsvParseError,
    Dataset,
    InstabilityError,
    Nonlinearity,
    PlantConfig,
    Role,
    desk_config,
    load_csv,
    paper_scale_config,
    save_csv,
    simulate,
    split_sequential,
)


def test_zero_coupling_fixed_point():
    cfg = PlantConfig(
        n_sensors=2,
        coupling=np.zeros((2, 2)),
        noise_std=0.0,
        nonlinearity=Nonlinearity.NONE,
        setpoints=np.array([1.0, 1.0]),
        seed=0,
    )
    data = simulate(cfg, 10)
    assert data.n_rows == 10
    assert np.allclose(data.values[2:, :2], 1.0)


def _simulate_per_step(config: PlantConfig, steps: int) -> np.ndarray:
    """``simulate``'s matrix drawn one noise vector per step, with one gain
    addition per control: the reference the blocked draws must match bit for
    bit.  Assumes a stable trajectory."""
    d, m = config.n_sensors, config.n_controls
    sp = config.setpoints
    rng = np.random.default_rng(config.seed)
    nl_set = sorted(config.nonlinear_channels) if config.nonlinearity != Nonlinearity.NONE else []
    ctrl_map = np.array([j % d for j in range(m)], dtype=int)
    zscale = math.sqrt(max(1, d - 1))

    def apply_readouts(vec, noise):
        base = vec.copy()
        for ch in nl_set:
            z = float(np.sum(np.delete(base - sp, ch))) / zscale
            vec[ch] = sp[ch] + plant._nonlinear_readout(config.nonlinearity, z) + noise[ch]
        return vec

    noise0 = rng.normal(0.0, config.noise_std)
    x = apply_readouts(sp + noise0, noise0)
    u = np.zeros(m)
    rows = np.empty((steps, d + m))
    for t in range(steps):
        rows[t, :d] = x
        rows[t, d:] = u
        u_next = plant._KP * (sp[ctrl_map] - x[ctrl_map])
        noise = rng.normal(0.0, config.noise_std)
        nxt = sp + config.coupling @ (x - sp) + noise
        for j in range(m):
            nxt[ctrl_map[j]] += plant._CTRL_GAIN * u[j]
        x, u = apply_readouts(nxt, noise), u_next
    return rows


@pytest.mark.parametrize(
    "config, steps",
    [
        pytest.param(desk_config(seed=7), 2100, id="desk"),
        pytest.param(desk_config(seed=7, nonlinearity="tanh", nonlinear_channels=(0,)), 300, id="desk-tanh"),
        pytest.param(paper_scale_config(seed=7), 7200, id="paper"),
        pytest.param(
            PlantConfig(
                n_sensors=3,
                n_controls=5,
                coupling=0.3 * np.eye(3),
                noise_std=[0.5, 0.0, 0.2],
                setpoints=[1.0, 2.0, 3.0],
                seed=7,
            ),
            1500,
            id="shared-control-sensor-and-noiseless-channel",
        ),
    ],
)
def test_simulate_matches_the_per_step_loop_bit_for_bit(config, steps):
    """Noise drawn in blocks and gains added in one ordered scatter give the
    matrix of one draw and one addition per step, across block boundaries
    and with two controls on one sensor."""
    values = simulate(config, steps).values
    assert np.array_equal(values.view(np.uint64), _simulate_per_step(config, steps).view(np.uint64))


def test_simulate_deterministic():
    cfg = desk_config(seed=123)
    a = simulate(cfg, 60)
    b = simulate(cfg, 60)
    assert a.columns == b.columns and a.timestep == b.timestep and np.array_equal(a.values, b.values)


def test_simulate_different_seed_differs():
    a = simulate(desk_config(seed=1), 40)
    b = simulate(desk_config(seed=2), 40)
    assert not np.array_equal(a.values, b.values)


def test_instability_error():
    # Radius check is skipped when a channel is nonlinear, so an expanding
    # map must be caught at runtime.
    cfg = PlantConfig(
        n_sensors=2,
        coupling=2.0 * np.eye(2),
        noise_std=1.0,
        nonlinearity=Nonlinearity.TANH,
        nonlinear_channels=(0,),
        seed=0,
    )
    with pytest.raises(InstabilityError):
        simulate(cfg, 200)


def test_unstable_coupling_rejected_upfront():
    # A nonlinearity with no channel to apply it to leaves the plant linear.
    for nonlinearity in (Nonlinearity.NONE, Nonlinearity.TANH):
        with pytest.raises(ValueError, match="spectral radius"):
            PlantConfig(n_sensors=2, coupling=1.5 * np.eye(2), nonlinearity=nonlinearity)


def test_simulate_requires_two_steps():
    with pytest.raises(ValueError):
        simulate(desk_config(), 1)


def test_dataset_invariants():
    cols = (Column("a", Role.CRITICAL), Column("b", Role.CONTROL))
    with pytest.raises(ValueError):
        Dataset(cols, np.array([[1.0, 2.0]]))  # one row
    with pytest.raises(ValueError):
        Dataset(cols, np.array([[1.0, np.nan], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        Dataset((Column("a", Role.CRITICAL), Column("a", Role.CONTROL)), np.ones((2, 2)))
    data = Dataset(cols, np.ones((3, 2)))
    assert data.critical_columns() == (0,)
    assert data.control_columns() == (1,)
    assert data.sensor_columns() == (0,)


def test_nonlinearity_is_coerced_and_checked_at_construction():
    assert PlantConfig(n_sensors=2, nonlinearity="tanh").nonlinearity is Nonlinearity.TANH
    with pytest.raises(ValueError):
        PlantConfig(n_sensors=2, nonlinearity="bogus")


def test_quadratic_readout():
    """A quadratic channel reads ``sp + 0.5 * amp * (beta * z)**2`` (amp 2,
    beta 1.5), where ``z`` is the other sensors' summed offset from their
    setpoints over sqrt(d - 1); channel 0 carries no noise here."""
    noise = np.full(8, 0.4)
    noise[0] = 0.0
    cfg = desk_config(seed=3, nonlinearity="quadratic", nonlinear_channels=[0], noise_std=noise)
    data = simulate(cfg, 50)
    sensors = data.values[:, :8]
    z = (sensors[:, 1:] - cfg.setpoints[1:]).sum(axis=1) / np.sqrt(7)
    assert np.allclose(sensors[:, 0], cfg.setpoints[0] + 0.5 * 2.0 * (1.5 * z) ** 2, rtol=1e-12, atol=1e-12)
    assert np.ptp(sensors[:, 0]) > 1.0  # the readout moves


@pytest.mark.parametrize(
    "field, value",
    [
        ("coupling", np.full((8, 8), np.nan)),
        ("setpoints", [np.inf] + [1.0] * 7),
        ("noise_std", np.nan),
        ("noise_std", np.inf),
    ],
)
def test_non_finite_plant_parameters_rejected(field, value):
    """Checked up front, also where a nonlinear channel skips the spectral
    radius check."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        desk_config(nonlinearity="tanh", nonlinear_channels=(0,), **{field: value})


def test_desk_and_paper_templates():
    desk = desk_config()
    assert desk.n_sensors == 8 and desk.n_controls == 2
    assert len(desk.critical_sensors) == 2
    paper = paper_scale_config()
    assert paper.n_sensors == 41 and paper.n_controls == 12
    assert len(paper.critical_sensors) == 5
    assert paper.timestep == 36.0


def test_csv_round_trip(tmp_path):
    data = simulate(desk_config(seed=5), 30)
    csv_path = tmp_path / "d.csv"
    roles_path = tmp_path / "d.roles.json"
    save_csv(data, csv_path, roles_path)
    loaded = load_csv(csv_path, roles_path)
    assert loaded.columns == data.columns and loaded.timestep == data.timestep
    assert np.array_equal(loaded.values, data.values)


def test_save_csv_writes_what_csv_writer_writes(tmp_path):
    """The same bytes as ``csv.writer`` given ``repr`` of each cell, signed
    zeros, subnormals and the largest floats included."""
    data = simulate(desk_config(seed=5), 40)
    values = data.values.copy()
    values[0, :6] = (-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.0)
    dataset = Dataset(data.columns, values)
    save_csv(dataset, tmp_path / "d.csv", tmp_path / "d.roles.json")
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(dataset.names)
    writer.writerows([repr(float(v)) for v in row] for row in dataset.values)
    assert (tmp_path / "d.csv").read_bytes() == expected.getvalue().encode()


def test_load_csv_matrix_is_bit_equal_to_per_cell_parse(tmp_path):
    """The whole-matrix parse reads back exactly what ``float`` reads cell
    by cell, on a ``save_csv`` round trip over values that span the whole
    float range, signed zeros and subnormals included."""
    data = simulate(desk_config(seed=5), 40)
    rng = np.random.default_rng(3)
    wide = rng.normal(size=data.values.shape) * 10.0 ** rng.integers(-300, 300, data.values.shape)
    wide[0, :3] = (-0.0, 5e-324, -1.7976931348623157e308)
    for values in (data.values, wide):
        dataset = Dataset(data.columns, values)
        save_csv(dataset, tmp_path / "d.csv", tmp_path / "d.roles.json")
        with open(tmp_path / "d.csv", newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        per_cell = np.array([[float(cell.strip()) for cell in row] for row in cells])
        loaded = load_csv(tmp_path / "d.csv", tmp_path / "d.roles.json").values
        assert loaded.dtype == per_cell.dtype and loaded.shape == per_cell.shape
        assert np.array_equal(loaded.view(np.uint64), per_cell.view(np.uint64))
        assert np.array_equal(loaded.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize(
    "body,fragment,row",
    [
        ("a,b\n3,4\n1,x\n3\n", "non-numeric cell 'x' at row 1, column 'b'", 1),
        ("a,b\n3,4\n1\n1,x\n", "row 1 has 1 cells, expected 2", 1),
        ("a,b\n3,4\n \t,2\n", "blank cell at row 1, column 'a'", 1),
        ("a,b\n1,2\n\n3,4\n", "row 1 has 0 cells, expected 2", 1),
        ("a,b\n1,2\n3,4\n\n", "row 2 has 0 cells, expected 2", 2),
        ("a,b\n1,2\r3,4\n\n", "row 2 has 0 cells, expected 2", 2),
        ("a,b\n1,2\n  \n3,4\n", "row 1 has 1 cells, expected 2", 1),
        ("a,b\n1,2\n#3,4\n", "non-numeric cell '#3' at row 1, column 'a'", 1),
        ("a,b\n1,2,\n3,4,\n", "row 0 has 3 cells, expected 2", 0),
    ],
)
def test_load_csv_names_the_first_bad_row(tmp_path, body, fragment, row):
    """Whichever comes first, a bad cell or a ragged row, is the one named.
    A blank line is a ragged row and ``#`` starts no comment."""
    (tmp_path / "t.csv").write_text(body)
    (tmp_path / "t.json").write_text(
        '{"columns": [{"name": "a", "role": "critical"}, {"name": "b", "role": "non_critical"}]}'
    )
    with pytest.raises(CsvParseError) as exc:
        load_csv(tmp_path / "t.csv", tmp_path / "t.json")
    assert str(exc.value) == fragment and exc.value.row == row


@pytest.mark.parametrize(
    "body, expected",
    [
        pytest.param('a,b\n"1",2\n3,"4"\n', [[1.0, 2.0], [3.0, 4.0]], id="quoted"),
        pytest.param('a,b\n"1\n",2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]], id="quoted-newline"),
        pytest.param("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], id="crlf"),
        pytest.param("a,b\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]], id="lone-cr"),
        pytest.param("a,b\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]], id="no-final-newline"),
        pytest.param("a,b\n1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]], id="underscore"),
    ],
)
def test_load_csv_reads_cells_as_the_csv_module_and_float_do(tmp_path, body, expected):
    """Quoting and line endings as ``csv.reader`` reads them, cells as
    ``float`` reads them."""
    (tmp_path / "t.csv").write_bytes(body.encode())
    (tmp_path / "t.json").write_text(
        '{"columns": [{"name": "a", "role": "critical"}, {"name": "b", "role": "non_critical"}]}'
    )
    assert load_csv(tmp_path / "t.csv", tmp_path / "t.json").values.tolist() == expected


def test_load_csv_header_only_is_no_dataset(tmp_path):
    """Rows count data rows from 0, as in every other parse error: a
    header-only file fails at row 0, and an empty file has no row."""
    (tmp_path / "t.json").write_text(
        '{"columns": [{"name": "a", "role": "critical"}, {"name": "b", "role": "non_critical"}]}'
    )
    for body, fragment, row in (("a,b\n", "no data rows", 0), ("", "empty CSV file", None)):
        (tmp_path / "t.csv").write_text(body)
        with pytest.raises(CsvParseError, match=fragment) as exc:
            load_csv(tmp_path / "t.csv", tmp_path / "t.json")
        assert exc.value.row == row


def test_load_csv_small(tmp_path):
    (tmp_path / "t.csv").write_text("a,b\n1,2\n3,4\n5,6\n")
    (tmp_path / "t.json").write_text(
        '{"columns": [{"name": "a", "role": "critical"}, {"name": "b", "role": "control"}],'
        ' "timestep_seconds": 2.0}'
    )
    data = load_csv(tmp_path / "t.csv", tmp_path / "t.json")
    assert data.n_rows == 3 and data.n_columns == 2
    assert data.timestep == 2.0


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("a,b\n1,\n3,4\n", "blank cell"),
        ("a,b\n1,x\n3,4\n", "non-numeric"),
        ("a,b\n1\n3,4\n", "cells"),
    ],
)
def test_load_csv_parse_errors(tmp_path, body, fragment):
    (tmp_path / "t.csv").write_text(body)
    (tmp_path / "t.json").write_text(
        '{"columns": [{"name": "a", "role": "critical"}, {"name": "b", "role": "non_critical"}]}'
    )
    with pytest.raises(CsvParseError, match=fragment) as exc:
        load_csv(tmp_path / "t.csv", tmp_path / "t.json")
    assert exc.value.row == 0


def test_load_csv_unknown_role(tmp_path):
    (tmp_path / "t.csv").write_text("a\n1\n2\n")
    (tmp_path / "t.json").write_text('{"columns": [{"name": "a", "role": "bogus"}]}')
    with pytest.raises(CsvParseError, match="unknown role"):
        load_csv(tmp_path / "t.csv", tmp_path / "t.json")


def test_split_sequential_examples():
    data = simulate(desk_config(seed=0), 10)
    train, test = split_sequential(data, 0.8)
    assert train.n_rows == 8 and test.n_rows == 2
    assert np.array_equal(np.vstack([train.values, test.values]), data.values)

    data4 = Dataset(data.columns, data.values[:4])
    a, b = split_sequential(data4, 0.5)
    assert a.n_rows == 2 and b.n_rows == 2

    data3 = Dataset(data.columns, data.values[:3])
    with pytest.raises(ValueError):
        split_sequential(data3, 0.95)
    with pytest.raises(ValueError):
        split_sequential(data4, 1.2)
