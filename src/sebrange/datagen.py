"""Deterministic synthetic generator for swap orders and their graph.

Each order is one ride: a user takes a battery at a station during a swap
timestep, rides for a normally distributed ride length (target mean 275 in
ride units), and the remaining-range label is what the battery's full-charge
range had left after the ride's energy draw. Telemetry is a 64-row matrix of
six channels: speed (km/h), pack voltage (V), current (A), motor temperature
(degC), payload (kg) and terrain grade (%).

The energy model is deliberately simple and fully documented by the module
constants below: per-step motor power is

    p = max(0, BASE_POWER + SPEED2_COEF * speed^2 + GRADE_LOAD_COEF * grade * payload)

motor temperature follows a first-order heating/cooling recursion driven by
p, and the per-step energy rate adds a thermal-loss term

    e = p + HEAT_LOSS_COEF * max(0, temperature - TEMP_KNEE).

Ride energy scales with ride length, and the label is

    label = clip(capacity * FULL_RANGE_KM - consumed_km + noise, 0, capacity * FULL_RANGE_KM)

where each battery carries a fixed latent capacity factor (its degradation
state). Capacity is visible only through which battery served the order,
never through telemetry; telemetry-only models therefore hit an error floor
that the graph branch can cross.

Every order draws from its own substream keyed by (seed, order id), so
orders are generated vectorized, a block of rows at a time, yet individual
orders are reproducible in isolation. The assignment of orders to
timesteps, users, batteries and stations uses dedicated substreams of the
master seed.
"""

import math
import os
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigError, ParseError, VersionError, utf8_error
from .graph import NodeRef, TemporalGraph, battery, load_graph, save_graph, user
from .rng import Rng, derive_seed, derive_seeds, splitmix64_block, unit_floats

ORDERS_HEADER_PREFIX = "#seb-orders v1 F="
N_FEATURES = 6
SEQ_LEN = 64

# Battery model.
FULL_RANGE_KM = 60.0
CAPACITY_RANGE = (0.75, 1.0)

# Consumption model constants (energy rate per telemetry step).
BASE_POWER = 0.8
SPEED2_COEF = 0.004
GRADE_LOAD_COEF = 0.002
HEAT_LOSS_COEF = 0.05
TEMP_KNEE = 25.0
HEAT_GAIN = 0.75
COOL_RATE = 0.15
KM_PER_ENERGY = 4.0
RIDE_REF = 275.0

# Telemetry channel synthesis.
BASE_SPEED_RANGE = (12.0, 28.0)
AMBIENT_RANGE = (12.0, 28.0)
PAYLOAD_RANGE = (60.0, 100.0)
SPEED_MIN = 3.0
GRADE_LIMIT = 8.0
SPEED_WALK_SD = 1.2
SPEED_WALK_PHI = 0.85
GRADE_WALK_SD = 1.5
GRADE_WALK_PHI = 0.9
VOLTAGE_FULL = 52.0
VOLTAGE_DROP = 12.0
CURRENT_FACTOR = 3.0
VOLTAGE_NOISE_SD = 0.3
CURRENT_NOISE_SD = 0.4
TEMP_NOISE_SD = 0.5
# cfg.noise is the label-noise fraction of full range; telemetry noise and
# the walk spreads scale with cfg.noise / NOISE_REF so noise=0 flattens
# everything stochastic in the ride profile.
NOISE_REF = 0.02

# Substream keys under the master seed.
_CAPACITY_KEY = 1
_ASSIGN_KEY = 2
_ORDER_KEY_BASE = 1000


@dataclass(slots=True)
class Order:
    """One ride sample with its 64-step telemetry and range label."""

    order_id: int
    user: NodeRef
    battery: NodeRef
    t: int
    telemetry: np.ndarray
    ride_length: float
    label: float

    def __post_init__(self):
        self.telemetry = np.asarray(self.telemetry, dtype=np.float64)
        if self.telemetry.shape != (SEQ_LEN, N_FEATURES):
            raise ConfigError(
                f"telemetry must be {SEQ_LEN}x{N_FEATURES}, got {self.telemetry.shape}"
            )
        if not np.isfinite(self.telemetry).all():
            raise ConfigError("telemetry must be finite")
        if not 0 <= self.label < math.inf:  # written so that NaN fails
            raise ConfigError(f"label must be finite and nonnegative, got {self.label}")
        if not math.isfinite(self.ride_length):
            raise ConfigError(f"ride_length must be finite, got {self.ride_length}")


@dataclass
class GeneratorConfig:
    n_orders: int = 2000
    n_users: int = 1200
    n_batteries: int = 400
    n_stations: int = 25
    horizon: int = 50
    ride_mean: float = 275.0
    ride_sd: float = 40.0
    noise: float = 0.02
    seed: int = 42

    def validate(self):
        counts = (self.n_orders, self.n_users, self.n_batteries,
                  self.n_stations, self.horizon)
        if any(c <= 0 for c in counts):
            raise ConfigError(f"generator counts must be positive, got {self}")
        # Written so that NaN fails each float check.
        if not (self.ride_mean > 0 and self.ride_sd > 0):
            raise ConfigError(
                f"ride length mean and sd must be positive, got {self.ride_mean}, {self.ride_sd}")
        if not self.noise >= 0:
            raise ConfigError(f"noise must be nonnegative, got {self.noise}")
        cap = self.horizon * min(self.n_batteries, self.n_users)
        if self.n_orders > cap:
            raise ConfigError(
                f"{self.n_orders} orders exceed capacity {cap}: more concurrent "
                "orders than batteries/users per timestep"
            )


def battery_capacities(cfg: GeneratorConfig) -> np.ndarray:
    """Latent full-charge capacity factor per battery (degradation state)."""
    rng = Rng(derive_seed(cfg.seed, _CAPACITY_KEY))
    lo, hi = CAPACITY_RANGE
    return rng.uniform(lo, hi, size=(cfg.n_batteries,))


# Per-order uniform draw layout (column offsets into the substream matrix).
_C_RIDE = 0          # 2 cols -> 1 normal
_C_BASE_SPEED = 2
_C_AMBIENT = 3
_C_PAYLOAD = 4
_C_LABEL_NOISE = 5   # 2 cols -> 1 normal
_C_BLOCKS = 7        # five 128-col blocks -> 64 normals each
_N_DRAWS = _C_BLOCKS + 5 * 2 * SEQ_LEN


def _normals(u: np.ndarray, start: int, count: int) -> np.ndarray:
    """count normals per row from 2*count uniform columns (Box-Muller, cos)."""
    u1 = 1.0 - u[:, start:start + count]          # (0, 1] keeps the log finite
    u2 = u[:, start + count:start + 2 * count]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _ar_walk(eps: np.ndarray, phi: float, sd: float) -> np.ndarray:
    walk = np.empty_like(eps)
    acc = sd * eps[:, 0]
    walk[:, 0] = acc
    for k in range(1, eps.shape[1]):
        acc = phi * acc + sd * eps[:, k]
        walk[:, k] = acc
    return walk


def temperature_scan(power, ambient, heat, cool, t0):
    """Motor temperature per step for a batch of rides (rows of ``power``):

        T[k] = T[k-1] + heat * power[:, k] - cool * (T[k-1] - ambient)
    """
    out = np.empty(power.shape, dtype=np.float64)
    temp = t0
    for k in range(power.shape[1]):
        temp = temp + heat * power[:, k] - cool * (temp - ambient)
        out[:, k] = temp
    return out


def _assign_slots(cfg: GeneratorConfig):
    """Deterministic (t, user, battery, station) per order.

    Each timestep hosts at most one order per battery and per user; draws
    that land in a full timestep probe linearly to the next one.
    """
    rng = Rng(derive_seed(cfg.seed, _ASSIGN_KEY))
    per_t_cap = min(cfg.n_batteries, cfg.n_users)
    t_draws = rng.integers(cfg.horizon, size=(cfg.n_orders,))
    counts = np.zeros(cfg.horizon, dtype=np.int64)
    t_of = np.empty(cfg.n_orders, dtype=np.int64)
    ids_by_t = [[] for _ in range(cfg.horizon)]
    for i in range(cfg.n_orders):
        t = int(t_draws[i])
        while counts[t] >= per_t_cap:
            t = (t + 1) % cfg.horizon
        counts[t] += 1
        t_of[i] = t
        ids_by_t[t].append(i)

    user_of = np.empty(cfg.n_orders, dtype=np.int64)
    batt_of = np.empty(cfg.n_orders, dtype=np.int64)
    station_of = np.empty(cfg.n_orders, dtype=np.int64)
    for t in range(cfg.horizon):
        ids = ids_by_t[t]
        if not ids:
            continue
        k = len(ids)
        batt_of[ids] = rng.permutation_prefix(cfg.n_batteries, k)
        user_of[ids] = rng.permutation_prefix(cfg.n_users, k)
        station_of[ids] = rng.integers(cfg.n_stations, size=(k,))
    return t_of, user_of, batt_of, station_of


# generate() derives this many orders at a time, a bound on its temporaries.
_GEN_BLOCK_ORDERS = 256


def generate(cfg: GeneratorConfig):
    """Produce (orders, graph), fully determined by cfg.seed."""
    cfg.validate()
    n = cfg.n_orders
    caps = battery_capacities(cfg)
    t_of, user_of, batt_of, station_of = _assign_slots(cfg)
    # One substream per order id. A row depends only on its substream and
    # battery, so the block size changes no bit of the result.
    seeds = derive_seeds(cfg.seed, _ORDER_KEY_BASE + np.arange(n, dtype=np.int64))
    full = caps[batt_of] * FULL_RANGE_KM
    ride, labels, telemetry = np.empty(n), np.empty(n), np.empty((n, SEQ_LEN, N_FEATURES))
    for lo in range(0, n, _GEN_BLOCK_ORDERS):
        rows = slice(lo, lo + _GEN_BLOCK_ORDERS)
        _generate_rows(cfg, seeds[rows], full[rows], ride[rows], labels[rows], telemetry[rows])

    g = TemporalGraph(cfg.n_users, cfg.n_batteries, cfg.horizon)
    g.add_edges(t_of, user_of, batt_of, station_of)
    cols = (c.tolist() for c in (user_of, batt_of, t_of, ride, labels))
    orders = [Order(i, user(u), battery(b), t, telemetry[i], ride_i, label)
              for i, (u, b, t, ride_i, label) in enumerate(zip(*cols))]
    return orders, g


def _generate_rows(cfg, seeds, full, ride, labels, telemetry):
    """Fill ``ride``, ``labels`` and ``telemetry`` for orders of substream
    ``seeds`` whose batteries have full range ``full``."""
    # Row i holds the uniform draws of substream seeds[i].
    u = unit_floats(splitmix64_block(seeds, _N_DRAWS))

    noise_scale = cfg.noise / NOISE_REF
    ride[:] = np.maximum(cfg.ride_mean + cfg.ride_sd * _normals(u, _C_RIDE, 1)[:, 0], 1.0)
    base_speed = BASE_SPEED_RANGE[0] + (
        BASE_SPEED_RANGE[1] - BASE_SPEED_RANGE[0]) * u[:, _C_BASE_SPEED]
    ambient = AMBIENT_RANGE[0] + (
        AMBIENT_RANGE[1] - AMBIENT_RANGE[0]) * u[:, _C_AMBIENT]
    payload = PAYLOAD_RANGE[0] + (
        PAYLOAD_RANGE[1] - PAYLOAD_RANGE[0]) * u[:, _C_PAYLOAD]
    label_eps = _normals(u, _C_LABEL_NOISE, 1)[:, 0]

    blk = 2 * SEQ_LEN
    speed_eps = _normals(u, _C_BLOCKS + 0 * blk, SEQ_LEN)
    grade_eps = _normals(u, _C_BLOCKS + 1 * blk, SEQ_LEN)
    volt_eps = _normals(u, _C_BLOCKS + 2 * blk, SEQ_LEN)
    curr_eps = _normals(u, _C_BLOCKS + 3 * blk, SEQ_LEN)
    temp_eps = _normals(u, _C_BLOCKS + 4 * blk, SEQ_LEN)

    speed = np.maximum(
        SPEED_MIN,
        base_speed[:, None] + _ar_walk(speed_eps, SPEED_WALK_PHI,
                                       SPEED_WALK_SD * noise_scale),
    )
    grade = np.clip(
        _ar_walk(grade_eps, GRADE_WALK_PHI, GRADE_WALK_SD * noise_scale),
        -GRADE_LIMIT, GRADE_LIMIT,
    )

    power = np.maximum(
        0.0,
        BASE_POWER + SPEED2_COEF * speed**2
        + GRADE_LOAD_COEF * grade * payload[:, None],
    )
    temp = temperature_scan(power, ambient, HEAT_GAIN, COOL_RATE, ambient)
    energy = power + HEAT_LOSS_COEF * np.maximum(0.0, temp - TEMP_KNEE)

    consumed_cum = (
        KM_PER_ENERGY * (ride[:, None] / RIDE_REF)
        * np.cumsum(energy, axis=1) / SEQ_LEN
    )
    consumed = consumed_cum[:, -1]
    label_sd = cfg.noise * FULL_RANGE_KM
    labels[:] = np.clip(full - consumed + label_sd * label_eps, 0.0, full)

    voltage = (
        VOLTAGE_FULL - VOLTAGE_DROP * consumed_cum / FULL_RANGE_KM
        + VOLTAGE_NOISE_SD * noise_scale * volt_eps
    )
    current = CURRENT_FACTOR * energy + CURRENT_NOISE_SD * noise_scale * curr_eps
    temp_ch = temp + TEMP_NOISE_SD * noise_scale * temp_eps
    payload_ch = np.repeat(payload[:, None], SEQ_LEN, axis=1)
    np.stack([speed, voltage, current, temp_ch, payload_ch, grade], axis=2,
             out=telemetry)


@dataclass
class SummaryStats:
    """Dataset statistics for the generation report."""

    n_orders: int
    ride_mean: float
    ride_sd: float
    ride_hist_edges: np.ndarray
    ride_hist_counts: np.ndarray
    label_mean: float
    label_sd: float
    battery_reuse: dict = field(repr=False)

    def format(self) -> str:
        reuse = np.array(list(self.battery_reuse.values()))
        lines = [
            f"orders: {self.n_orders}",
            f"ride length: mean {self.ride_mean:.2f}, sd {self.ride_sd:.2f}",
            f"label (km): mean {self.label_mean:.2f}, sd {self.label_sd:.2f}",
            f"battery reuse: {len(self.battery_reuse)} batteries, "
            f"mean {reuse.mean():.2f}, max {reuse.max()} orders each",
            "ride histogram:",
        ]
        for i, c in enumerate(self.ride_hist_counts):
            lo, hi = self.ride_hist_edges[i], self.ride_hist_edges[i + 1]
            lines.append(f"  [{lo:8.2f}, {hi:8.2f}): {c}")
        return "\n".join(lines)


def summarize(orders) -> SummaryStats:
    if not orders:
        raise ConfigError("cannot summarize an empty order list")
    ride = np.array([o.ride_length for o in orders])
    labels = np.array([o.label for o in orders])
    counts, edges = np.histogram(ride, bins=10)
    reuse = {}
    for o in orders:
        reuse[o.battery.index] = reuse.get(o.battery.index, 0) + 1
    return SummaryStats(
        n_orders=len(orders),
        ride_mean=float(ride.mean()),
        ride_sd=float(ride.std(ddof=1)) if len(orders) > 1 else 0.0,
        ride_hist_edges=edges,
        ride_hist_counts=counts,
        label_mean=float(labels.mean()),
        label_sd=float(labels.std(ddof=1)) if len(orders) > 1 else 0.0,
        battery_reuse=reuse,
    )


# ---------------------------------------------------------------------------
# dataset files: orders + graph in one directory, bit-exact round trip
# ---------------------------------------------------------------------------

# orders.seb is read this many orders at a time: one np.loadtxt call per block.
# A block is all a read holds beyond its result: 0.42 MiB at 2,000 orders.
_BLOCK_ORDERS = 16
_ORDER_LINES = 1 + SEQ_LEN
# A block's telemetry goes to np.loadtxt only if it holds nothing but these
# bytes, screened an order at a time so the block is never copied. On plain
# decimals loadtxt and float() agree bit for bit (both call
# PyOS_string_to_double); on other text they may not (loadtxt rejects
# ``1_0`` and accepts a trailing ``\x1c``, float() the reverse).
_DECIMAL_BYTES = b"0123456789.eE+-,"


def write_orders(orders, path):
    """Write ``orders`` one at a time, every float as its ``repr``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{ORDERS_HEADER_PREFIX}{N_FEATURES}\n")
        for o in orders:
            fh.write(f"{o.order_id},{o.user.index},{o.battery.index},{o.t},"
                     f"{float(o.ride_length)!r},{float(o.label)!r}\n")
            # repr of a list of floats writes each as repr(float(v)).
            rows = repr(o.telemetry.tolist())[2:-2]
            fh.write(rows.replace("], [", "\n").replace(", ", ",") + "\n")


def read_orders(path):
    """Parse ``path`` in blocks of ``_BLOCK_ORDERS`` orders.

    A block whose telemetry is all plain finite decimals in the right shape
    goes through one ``np.loadtxt``; any other block is parsed line by line,
    which accepts what ``float()`` accepts and raises the ParseError of the
    block's earliest bad line. Either way the orders equal a line-by-line
    parse of the whole file, and the reader holds one block at a time.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        first = fh.readline()
        header = first.rstrip("\n")
        if not header.startswith(ORDERS_HEADER_PREFIX):
            found = header if first else "<empty file>"
            raise VersionError(path, 1,
                               f"expected header {ORDERS_HEADER_PREFIX}<F>, found {found!r}")
        try:
            n_features = int(header[len(ORDERS_HEADER_PREFIX):])
        except ValueError:
            raise VersionError(path, 1, f"bad feature count in header {header!r}") from None
        if n_features != N_FEATURES:
            raise VersionError(path, 1,
                               f"unsupported feature count {n_features} (expected {N_FEATURES})")
        orders, seen, line_no = [], set(), 2
        while block := [line.rstrip("\n")
                        for line in islice(fh, _BLOCK_ORDERS * _ORDER_LINES)]:
            orders += _read_block(path, block, line_no, seen)
            line_no += len(block)
    return orders


def _read_block(path, lines, line_no, seen):
    """Orders from one block of ``lines``, the first on line ``line_no``."""
    n = len(lines) // _ORDER_LINES
    rows = lines.copy()
    del rows[::_ORDER_LINES]
    # loadtxt skips blank lines, and warns when nothing else is left.
    texts = (",".join(rows[i:i + SEQ_LEN]) for i in range(0, len(rows), SEQ_LEN))
    if n * _ORDER_LINES == len(lines) and "" not in rows and all(
            t.isascii() and not t.encode().translate(None, _DECIMAL_BYTES) for t in texts):
        try:
            values = np.loadtxt(rows, delimiter=",", comments=None)
        except ValueError:
            values = None
        if (values is not None and values.shape == (n * SEQ_LEN, N_FEATURES)
                and np.isfinite(values).all()):
            values = values.reshape(n, SEQ_LEN, N_FEATURES)
            return [_order(_parse_meta(path, lines[k * _ORDER_LINES],
                                       line_no + k * _ORDER_LINES, seen), values[k])
                    for k in range(n)]
    return _read_lines(path, lines, line_no, seen)


def _read_lines(path, lines, line_no, seen):
    """The line-by-line parser of a block: every value through float()."""
    orders = []
    for i in range(0, len(lines), _ORDER_LINES):
        meta = _parse_meta(path, lines[i], line_no + i, seen)
        if i + SEQ_LEN >= len(lines):
            raise ParseError(path, line_no + len(lines),
                             f"order {meta[0]} truncated: expected {SEQ_LEN} telemetry rows")
        rows = np.empty((SEQ_LEN, N_FEATURES))
        for k in range(SEQ_LEN):
            row_no = line_no + i + 1 + k
            if bad := utf8_error(lines[i + 1 + k]):
                raise ParseError(path, row_no, bad)
            parts = lines[i + 1 + k].split(",")
            if len(parts) != N_FEATURES:
                raise ParseError(path, row_no,
                                 f"expected {N_FEATURES} values, got {len(parts)}")
            try:
                rows[k] = [float(x) for x in parts]
            except ValueError:
                raise ParseError(path, row_no,
                                 f"bad telemetry value in {lines[i + 1 + k]!r}") from None
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise ParseError(path, line_no + i + 1 + k,
                             f"non-finite telemetry value in {lines[i + 1 + k]!r}")
        orders.append(_order(meta, rows))
    return orders


def _parse_meta(path, line, line_no, seen):
    """(order_id, user, battery, t, ride_length, label) of a metadata line."""
    if bad := utf8_error(line):
        raise ParseError(path, line_no, bad)
    meta = line.split(",")
    if len(meta) != 6:
        raise ParseError(path, line_no, f"expected 6 metadata fields, got {len(meta)}")
    try:
        oid, u_idx, b_idx, t = (int(x) for x in meta[:4])
        ride_length, label = float(meta[4]), float(meta[5])
    except ValueError:
        raise ParseError(path, line_no, f"bad metadata line {line!r}") from None
    if oid in seen:
        raise ParseError(path, line_no, f"duplicate order id {oid}")
    seen.add(oid)
    if not (math.isfinite(ride_length) and math.isfinite(label)):
        raise ParseError(path, line_no, f"non-finite ride_length or label in {line!r}")
    if label < 0:
        raise ParseError(path, line_no, f"label must be nonnegative, got {label}")
    return oid, u_idx, b_idx, t, ride_length, label


def _order(meta, telemetry):
    oid, u_idx, b_idx, t, ride_length, label = meta
    return Order(oid, user(u_idx), battery(b_idx), t, telemetry, ride_length, label)


ORDERS_FILENAME = "orders.seb"
GRAPH_FILENAME = "graph.seb"


def write_dataset(orders, g, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    write_orders(orders, os.path.join(dirpath, ORDERS_FILENAME))
    save_graph(g, os.path.join(dirpath, GRAPH_FILENAME))


def _check_orders_in_graph(orders, g, path):
    """Raise ParseError at the first order whose user, battery or timestep
    lies outside the graph's ``#dims``, or that has no swap edge in it."""
    cols = ([o.t for o in orders], [o.user.index for o in orders],
            [o.battery.index for o in orders])
    i, outside = g.first_outside(*cols)
    missing = ~g.has_edges(*(c[:i] for c in cols))
    if missing.any():
        i, what = int(missing.argmax()), "has no swap edge in the graph"
    elif outside is not None:
        what = f"lies outside the graph's #dims {g.n_users},{g.n_batteries},{g.horizon}"
    else:
        return
    o = orders[i]
    # Order i's metadata line follows the header and i earlier orders.
    raise ParseError(
        path, 2 + i * (1 + SEQ_LEN),
        f"order {o.order_id} (user {o.user.index}, battery {o.battery.index}, "
        f"t {o.t}) {what}")


def read_dataset(dirpath):
    orders_path = os.path.join(dirpath, ORDERS_FILENAME)
    graph_path = os.path.join(dirpath, GRAPH_FILENAME)
    if not os.path.exists(orders_path) or not os.path.exists(graph_path):
        raise FileNotFoundError(f"dataset files not found under {dirpath}")
    orders, g = read_orders(orders_path), load_graph(graph_path)
    _check_orders_in_graph(orders, g, orders_path)
    return orders, g
