"""Scenario generator: determinism, physics contracts, file round trips."""

import hashlib

import numpy as np
import pytest

import sebrange.datagen as dg
from sebrange.config import RunConfig
from sebrange.errors import ConfigError, ParseError, VersionError
from sebrange.datagen import (
    GeneratorConfig,
    Order,
    battery_capacities,
    generate,
    read_dataset,
    read_orders,
    summarize,
    write_dataset,
    write_orders,
)
from sebrange.graph import battery, user

SMALL = GeneratorConfig(n_orders=150, n_users=60, n_batteries=25,
                        n_stations=5, horizon=10, seed=11)


@pytest.fixture(scope="module")
def small_dataset():
    return generate(SMALL)


def test_same_seed_bit_identical(small_dataset):
    orders, graph = small_dataset
    orders2, graph2 = generate(SMALL)
    for a, b in zip(orders, orders2):
        assert np.array_equal(a.telemetry, b.telemetry)
        assert a.label == b.label and a.ride_length == b.ride_length
        assert a.user == b.user and a.battery == b.battery and a.t == b.t
    for a, b in zip(graph.columns(), graph2.columns()):
        assert np.array_equal(a, b)


def test_different_seed_differs(small_dataset):
    orders, _ = small_dataset
    other, _ = generate(GeneratorConfig(**{**SMALL.__dict__, "seed": 12}))
    assert not np.array_equal(orders[0].telemetry, other[0].telemetry)


def test_telemetry_always_64_rows(small_dataset):
    orders, _ = small_dataset
    assert all(o.telemetry.shape == (64, 6) for o in orders)


def test_labels_nonnegative_and_within_full_charge(small_dataset):
    orders, _ = small_dataset
    caps = battery_capacities(SMALL)
    for o in orders:
        assert 0.0 <= o.label <= caps[o.battery.index] * dg.FULL_RANGE_KM + 1e-12


def test_every_order_has_exactly_one_edge(small_dataset):
    orders, graph = small_dataset
    edges = graph.columns()
    assert edges.t.size == len(orders)
    for o in orders:
        matching = ((edges.t == o.t) & (edges.user == o.user.index)
                    & (edges.battery == o.battery.index))
        assert np.count_nonzero(matching) == 1


def test_battery_reuse_across_snapshots(small_dataset):
    orders, _ = small_dataset
    counts = {}
    for o in orders:
        counts[o.battery.index] = counts.get(o.battery.index, 0) + 1
    assert max(counts.values()) >= 2


def test_noiseless_label_matches_closed_form():
    cfg = GeneratorConfig(n_orders=40, n_users=30, n_batteries=12,
                          n_stations=3, horizon=8, noise=0.0, seed=5)
    orders, _ = generate(cfg)
    caps = battery_capacities(cfg)
    for o in orders:
        speed, _, _, temp, payload, grade = (o.telemetry[:, i] for i in range(6))
        # flat profiles at zero noise
        assert np.allclose(speed, speed[0]) and np.allclose(grade, 0.0)
        power = np.maximum(0.0, dg.BASE_POWER + dg.SPEED2_COEF * speed**2
                           + dg.GRADE_LOAD_COEF * grade * payload)
        energy = power + dg.HEAT_LOSS_COEF * np.maximum(0.0, temp - dg.TEMP_KNEE)
        consumed = dg.KM_PER_ENERGY * (o.ride_length / dg.RIDE_REF) * energy.sum() / 64
        full = caps[o.battery.index] * dg.FULL_RANGE_KM
        expected = float(np.clip(full - consumed, 0.0, full))
        assert abs(expected - o.label) < 1e-9


def test_label_nonincreasing_in_speed():
    # rebuild one noiseless order's label with a uniformly faster profile:
    # consumption is monotone in speed, so the label cannot increase
    cfg = GeneratorConfig(n_orders=10, n_users=10, n_batteries=5,
                          n_stations=2, horizon=4, noise=0.0, seed=9)
    orders, _ = generate(cfg)
    caps = battery_capacities(cfg)

    def label_for(o, ambient, speed):
        payload = o.telemetry[:, 4]
        grade = o.telemetry[:, 5]
        power = np.maximum(0.0, dg.BASE_POWER + dg.SPEED2_COEF * speed**2
                           + dg.GRADE_LOAD_COEF * grade * payload)
        temp = dg.temperature_scan(power[None, :], ambient, dg.HEAT_GAIN,
                                dg.COOL_RATE, ambient)[0]
        energy = power + dg.HEAT_LOSS_COEF * np.maximum(0.0, temp - dg.TEMP_KNEE)
        consumed = dg.KM_PER_ENERGY * (o.ride_length / dg.RIDE_REF) * energy.sum() / 64
        full = caps[o.battery.index] * dg.FULL_RANGE_KM
        return float(np.clip(full - consumed, 0.0, full))

    for o in orders:
        speed = o.telemetry[:, 0]
        # start temp equals ambient at zero noise, so the first scan step
        # gives ambient = temp[0] - heat_gain * power[0]
        p0 = max(0.0, dg.BASE_POWER + dg.SPEED2_COEF * speed[0]**2
                 + dg.GRADE_LOAD_COEF * o.telemetry[0, 5] * o.telemetry[0, 4])
        ambient = np.array([o.telemetry[0, 3] - dg.HEAT_GAIN * p0])
        assert abs(label_for(o, ambient, speed) - o.label) < 1e-9
        assert label_for(o, ambient, speed + 4.0) <= label_for(o, ambient, speed)


class TestSummarize:
    def test_single_order(self, small_dataset):
        orders, _ = small_dataset
        s = summarize(orders[:1])
        assert s.ride_mean == orders[0].ride_length
        assert s.n_orders == 1

    def test_histogram_sums_to_n(self, small_dataset):
        orders, _ = small_dataset
        s = summarize(orders)
        assert int(s.ride_hist_counts.sum()) == len(orders)

    def test_format_is_printable(self, small_dataset):
        orders, _ = small_dataset
        text = summarize(orders).format()
        assert "ride length" in text and "battery reuse" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])


class TestRoundTrip:
    def test_dataset_bit_exact(self, small_dataset, tmp_path):
        orders, graph = small_dataset
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_dataset(orders, graph, d1)
        ro, rg = read_dataset(d1)
        write_dataset(ro, rg, d2)
        assert (d1 / "orders.seb").read_bytes() == (d2 / "orders.seb").read_bytes()
        assert (d1 / "graph.seb").read_bytes() == (d2 / "graph.seb").read_bytes()
        for a, b in zip(orders, ro):
            assert np.array_equal(a.telemetry, b.telemetry)
            assert a.label == b.label and a.ride_length == b.ride_length

    @pytest.mark.parametrize("overrides, orders_sha, graph_sha", [
        ((), "64984e83856c5aa7889406833711e995fc59414107d54f5406460b957a266a0d",
         "9b4d49898048838d0eeba8522e4b0286563688eed32216743a3c4f9526650979"),
        (("gen.users=40000", "gen.batteries=12000"),
         "ebb376537fccb46a5470934c6aa8628b92fab2b21db1391535692ecc15199e4e",
         "12c1c5db8591902a181d441317600b4d85275b96add7f11bdefdaf518fa1f969"),
    ], ids=["default", "bigfleet"])
    def test_seed_42_files_pinned(self, tmp_path, overrides, orders_sha, graph_sha):
        orders, graph = generate(RunConfig.load(None, overrides).generator_config())
        write_dataset(orders, graph, tmp_path)
        for name, sha in (("orders.seb", orders_sha), ("graph.seb", graph_sha)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize("n_orders, orders_sha, graph_sha", [
        (1, "920598984fd225595e4a0fc9950dce94ad925488097b61616c9a7cadc938f6a4",
         "d2fb6ca826907233da4e3f4b71953222d2f3750ec6951020659656823906b6f1"),
        (257, "ba57cf332e4630d106695cfbdfe27f3c715e9db577d2ae0b2d368c12089fa5bb",
         "1054b4e6367e47bc484c42c12ab39b8dfbe7a84df3282dca4fecef59859a8d4f"),
    ], ids=["1-order", "257-orders"])
    @pytest.mark.parametrize("block_orders", [1, 7, 4096])
    def test_generation_block_size_changes_no_byte(self, tmp_path, monkeypatch, block_orders,
                                                   n_orders, orders_sha, graph_sha):
        # The pins were taken when all orders were generated in one block.
        monkeypatch.setattr(dg, "_GEN_BLOCK_ORDERS", block_orders)
        write_dataset(*generate(GeneratorConfig(n_orders=n_orders)), tmp_path)
        for name, sha in (("orders.seb", orders_sha), ("graph.seb", graph_sha)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha

    def test_truncated_file_names_line(self, tmp_path, small_dataset):
        orders, _ = small_dataset
        path = tmp_path / "orders.seb"
        write_orders(orders[:2], path)
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:40]) + "\n")
        with pytest.raises(ParseError, match="truncated"):
            read_orders(path)

    def test_bad_value_names_line(self, tmp_path, small_dataset):
        orders, _ = small_dataset
        path = tmp_path / "orders.seb"
        write_orders(orders[:1], path)
        lines = path.read_text().split("\n")
        lines[5] = lines[5].replace(",", ",oops", 1)
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=":6:"):
            read_orders(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "orders.seb"
        path.write_text("#seb-orders v2 F=6\n")
        with pytest.raises(VersionError):
            read_orders(path)

    def test_missing_dataset_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path / "nope")


class TestConfigValidation:
    def test_zero_orders_rejected(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(n_orders=0))

    def test_infeasible_concurrency_rejected(self):
        with pytest.raises(ConfigError, match="concurrent"):
            generate(GeneratorConfig(n_orders=100, n_users=50, n_batteries=3,
                                     horizon=2))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(noise=-0.1))


def test_order_validates_telemetry_shape():
    with pytest.raises(ConfigError):
        Order(0, user(0), battery(0), 0, np.zeros((10, 6)), 1.0, 1.0)
    with pytest.raises(ConfigError):
        Order(0, user(0), battery(0), 0, np.zeros((64, 6)), 1.0, -1.0)
    with pytest.raises(ConfigError, match="got nan"):
        Order(0, user(0), battery(0), 0, np.zeros((64, 6)), 1.0, np.nan)
    with pytest.raises(ConfigError, match="got inf"):
        Order(0, user(0), battery(0), 0, np.zeros((64, 6)), 1.0, np.inf)
    for ride_length in (np.nan, np.inf):
        with pytest.raises(ConfigError, match=f"ride_length must be finite, got {ride_length}"):
            Order(0, user(0), battery(0), 0, np.zeros((64, 6)), ride_length, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        tel = np.zeros((64, 6))
        tel[17, 3] = bad
        with pytest.raises(ConfigError, match="telemetry must be finite"):
            Order(0, user(0), battery(0), 0, tel, 1.0, 2.0)
