"""Topology builders, default traffic patterns and config parsing."""
import pickle
import re
from pathlib import Path

import pytest

from meshnc import (
    ConfigError,
    Flow,
    Protocol,
    SimParams,
    TimerParams,
    build_topology,
    default_flows,
    grid_id,
    neighbors,
    parse_config,
)
from meshnc.config import (_FLOAT_PARAMS, _INT_PARAMS, DEFAULT_BERS,
                           DEFAULT_SEEDS, ScenarioConfig)


class TestBuildTopology:
    def test_eight_node_adjacency_claims(self):
        topo = build_topology("eight_node")
        assert neighbors(topo, 1) == {0, 2, 5, 6}
        assert {2, 3} <= neighbors(topo, 6)
        assert 3 not in neighbors(topo, 5)
        assert 2 not in neighbors(topo, 0)

    def test_grid_corner_has_three_neighbors(self):
        topo = build_topology("grid5")
        assert neighbors(topo, grid_id(0, 0)) == {
            grid_id(0, 1), grid_id(1, 0), grid_id(1, 1)}

    def test_grid_interior_has_eight_neighbors(self):
        topo = build_topology("grid5")
        assert len(neighbors(topo, grid_id(2, 2))) == 8

    def test_x_relay_hears_all_endpoints(self):
        topo = build_topology("x_topo")
        assert neighbors(topo, 2) == {0, 1, 3, 4}

    def test_x_sources_hidden_from_each_other(self):
        topo = build_topology("x_topo")
        assert 1 not in neighbors(topo, 0)
        # Each destination overhears the opposite source.
        assert 3 in neighbors(topo, 1)
        assert 4 in neighbors(topo, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_topology("ring9")


class TestDefaultFlows:
    def test_eight_node_two_opposing_flows(self):
        flows = default_flows("eight_node")
        assert [(f.src, f.dst) for f in flows] == [(0, 4), (4, 0)]
        assert all(f.interval == 0.07 and f.duration == 150.0 for f in flows)

    def test_grid_eight_flows(self):
        flows = default_flows("grid5")
        assert len(flows) == 8
        assert all(f.interval == 0.1 and f.duration == 100.0 for f in flows)
        # Four column flows between the top and bottom rows, alternating.
        assert (flows[0].src, flows[0].dst) == (grid_id(0, 0), grid_id(4, 0))
        assert (flows[1].src, flows[1].dst) == (grid_id(4, 1), grid_id(0, 1))
        # Four row flows between the leftmost and rightmost columns.
        assert (flows[4].src, flows[4].dst) == (grid_id(0, 0), grid_id(0, 4))
        assert (flows[5].src, flows[5].dst) == (grid_id(1, 4), grid_id(1, 0))

    def test_x_crossing_flows(self):
        flows = default_flows("x_topo")
        assert [(f.src, f.dst) for f in flows] == [(0, 3), (1, 4)]


MINIMAL = "topology = eight_node\n"


class TestParseConfig:
    def test_minimal_applies_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.topology_kind == "eight_node"
        assert cfg.protocols == tuple(Protocol)
        assert cfg.bers == DEFAULT_BERS
        assert cfg.seeds == DEFAULT_SEEDS
        assert [(f.src, f.dst) for f in cfg.flows] == [(0, 4), (4, 0)]

    def test_full_config(self):
        text = """
        # full sweep setup
        name = bench
        topology = grid5
        protocols = plain, flexonc
        bers = 2e-6, 2e-4
        seeds = 1,2,3
        flow = 0, 24, 0.1, 50
        ack_slot = 0.004
        base_timeout = 0.02
        payload_size = 500
        """
        cfg = parse_config(text)
        assert cfg.name == "bench"
        assert cfg.protocols == (Protocol.PLAIN, Protocol.FLEXONC)
        assert cfg.bers == (2e-6, 2e-4)
        assert cfg.params.timers.ack_slot == 0.004
        assert cfg.params.timers.base_timeout == 0.02
        assert cfg.params.payload_size == 500
        assert cfg.flows[0].dst == 24

    def test_bad_ber_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("topology = eight_node\nber = 1.5\n")
        assert err.value.line_no == 2

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("topology = eight_node\nwibble = 3\n")
        assert err.value.line_no == 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("topology = eight_node\nprotocol = aodv\n")

    def test_disconnected_flow_rejected(self):
        text = """
        node = 0, 0, 0
        node = 1, 1000, 0
        flow = 0, 1, 0.1, 10
        """
        with pytest.raises(ValueError):
            parse_config(text)

    def test_explicit_nodes_and_topology_conflict(self):
        with pytest.raises(ConfigError):
            parse_config("topology = eight_node\nnode = 0, 0, 0\n")

    @pytest.mark.parametrize("text", [
        "topology = eight_node\nseeds = 1\nnode = 0, 0, 0\n",
        "node = 0, 0, 0\nseeds = 1\ntopology = eight_node\n",
    ])
    def test_topology_node_conflict_names_later_line(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("text", [
        "seeds = 1\n",
        "node = 0, 0, 0\nnode = 1, 200, 0\n",
    ])
    def test_missing_section_error_has_no_line(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no is None
        assert not str(err.value).startswith("line ")

    @pytest.mark.parametrize("flow", ["0, 9, 0.1, 5", "2, 2, 0.1, 5"])
    def test_bad_flow_endpoint_names_flow_line(self, flow):
        text = f"topology = x_topo\nflow = 0, 3, 0.1, 5\nflow = {flow}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("duration", ["0", "-1"])
    def test_non_positive_duration_names_flow_line(self, duration):
        # A zero-length flow has no throughput to report, so it must not
        # pass validation and then fault the sweep after simulating.
        text = ("topology = eight_node\nflow = 0, 4, 0.07, 10\n"
                f"flow = 4, 0, 0.07, {duration}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", sorted(_FLOAT_PARAMS))
    def test_non_finite_knob_names_its_line(self, key, value):
        # NaN slips past `v <= 0`; a NaN ack_slot once faulted the engine
        # with a causality violation, and a NaN pairing_hold ran silently
        # and delivered nothing.
        with pytest.raises(ConfigError) as err:
            parse_config(f"topology = eight_node\n{key} = {value}\n")
        assert err.value.line_no == 2
        assert "finite" in str(err.value)

    @pytest.mark.parametrize("flow", ["0, 4, nan, 10", "0, 4, inf, 10",
                                      "0, 4, 0.07, inf"])
    def test_non_finite_flow_names_flow_line(self, flow):
        text = f"topology = eight_node\nflow = 4, 0, 0.07, 10\nflow = {flow}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 3
        assert "finite" in str(err.value)

    @pytest.mark.parametrize("node", ["1, nan, 0", "1, 0, inf"])
    def test_non_finite_node_position_names_its_line(self, node):
        text = f"node = 0, 0, 0\nnode = {node}\nflow = 0, 1, 0.1, 5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("line, fields, got", [
        ("node = 1, 200", "id, x, y", 2),
        ("node = 1, 200, 0, 7", "id, x, y", 4),
        ("flow = 0, 1, 0.1", "src, dst, interval, duration", 3),
        ("flow = 0, 1, 0.1, 5, 9", "src, dst, interval, duration", 5),
    ], ids=["node-too-few", "node-too-many", "flow-too-few",
            "flow-too-many"])
    def test_wrong_field_count_names_the_fields_and_line(self, line, fields,
                                                         got):
        text = f"node = 0, 0, 0\n{line}\nflow = 0, 1, 0.1, 5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 2
        assert str(err.value) == (
            f"line 2: bad value for {line.split()[0]!r}: expected "
            f"{fields.count(',') + 1} fields ({fields}), got {got}")

    def test_unroutable_flow_names_flow_line(self):
        text = "node = 0, 0, 0\nnode = 1, 1000, 0\n\nflow = 0, 1, 0.1, 10\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 4

    def test_duplicate_node_id(self):
        with pytest.raises(ConfigError):
            parse_config("node = 0,0,0\nnode = 0,1,1\nflow = 0,0,1,1\n")

    def test_explicit_topology_roundtrip(self):
        text = """
        node = 0, 0, 0
        node = 1, 200, 0
        node = 2, 400, 0
        range = 250
        flow = 0, 2, 0.5, 5
        protocol = plain
        """
        cfg = parse_config(text)
        topo = cfg.topology()
        assert neighbors(topo, 1) == {0, 2}
        sc = cfg.scenario(Protocol.PLAIN, 0.0)
        assert sc.flows[0].dst == 2

    @pytest.mark.parametrize("text, line", [
        ("topology = grid5\nrange = 100\n", 2),
        ("range = 100\n\ntopology = grid5\n", 3),
    ], ids=["topology-then-range", "range-then-topology"])
    def test_range_with_stock_topology_names_later_line(self, text, line):
        # A stock topology has fixed links; a range line would be ignored.
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == line
        assert "range" in str(err.value)

    @pytest.mark.parametrize("line", [
        "protocols = plain, PLAIN", "bers = 0, 0.0", "seeds = 1, 2, 1"],
        ids=["protocols", "bers", "seeds"])
    def test_repeated_sweep_value_names_its_line(self, line):
        # A repeated value would run the same cells twice, and per-cell
        # statistics would count the copies as independent samples.
        with pytest.raises(ConfigError) as err:
            parse_config(f"topology = eight_node\n{line}\n")
        assert err.value.line_no == 2
        assert "repeats" in str(err.value)

    @pytest.mark.parametrize("text, line, first", [
        ("topology = x_topo\nseeds = 1\nseed = 2\n", 3, 2),
        ("topology = x_topo\nbers = 0\nbers = 1e-4\n", 3, 2),
        ("topology = grid5\n\ntopology = x_topo\n", 3, 1),
        # The second range disconnects the flow; the repeat is the fault.
        ("node = 0, 0, 0\nnode = 1, 200, 0\nflow = 0, 1, 0.1, 5\n"
         "range = 250\nrange = 100\n", 5, 4),
        ("topology = x_topo\nname = a\nname = b\n", 3, 2),
        ("topology = x_topo\nack_slot = 0.004\nack_slot = 0.005\n", 3, 2),
    ], ids=["seeds-then-seed", "bers-twice", "topology", "range", "name",
            "knob"])
    def test_repeated_key_names_its_line_and_the_first(self, text, line, first):
        # Every key but `node` and `flow` is given once; a second line once
        # silently overrode the first.
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == line
        assert f"already given on line {first}" in str(err.value)

    def test_missing_topology_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seeds = 1\n")

    def test_a_config_built_without_a_topology_is_rejected(self):
        # Built directly, not parsed: the same check, and no eight_node
        # stand-in for the missing layout.
        with pytest.raises(ConfigError, match="needs a 'topology'") as err:
            ScenarioConfig(flows=(Flow(0, 4, 0.07, 1.0),))
        assert err.value.line_no is None
        with pytest.raises(ConfigError, match="needs a 'topology'"):
            ScenarioConfig()

    def test_flow_endpoint_not_in_topology(self):
        with pytest.raises(ValueError):
            parse_config("topology = x_topo\nflow = 0, 9, 0.1, 5\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("\n# note\ntopology = x_topo  # inline\n\n")
        assert cfg.topology_kind == "x_topo"


def readme_config():
    """The example config in README's ```ini block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


EXPLICIT = """\
name = line
node = 0, 0, 0
node = 1, 200, 0
node = 2, 400, 0
node = 3, 200, 150
range = 250
protocols = plain, flexonc
bers = 0, 1e-4
seeds = 1, 2
flow = 0, 2, 0.5, 5
flow = 2, 0, 0.5, 5
pool_ttl = 2.5
queue_cap = 32
"""
NUMERIC_KEYS = ({"node", "flow", "range", "ber", "bers", "seed", "seeds"}
                | _FLOAT_PARAMS | _INT_PARAMS)
NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def mutations(text):
    """(id, mutated config, the line its ConfigError must name) for each
    mutation of each key line of `text`: drop the value, break each number
    of a numeric key, point a flow at an unknown node, give a later node
    the first node's id, and repeat the line (a key given twice; a flow
    line may repeat, so it is left out)."""
    lines = text.splitlines()
    first_node = next((i for i, line in enumerate(lines)
                       if line.startswith("node =")), None)
    for i, line in enumerate(lines):
        code = line.split("#", 1)[0]
        if "=" not in code:
            continue
        key, _, value = (part.strip() for part in code.partition("="))
        n = i + 1

        def swap(new):
            return "\n".join(lines[:i] + [new] + lines[i + 1:]) + "\n"

        yield f"{n}-{key}-no-value", swap(f"{key} ="), n
        if key in NUMERIC_KEYS:
            for m in NUMBER.finditer(value):
                broken = f"{value[:m.end()]}x{value[m.end():]}"
                yield (f"{n}-{key}-bad-number-{m.start()}",
                       swap(f"{key} = {broken}"), n)
        if key == "flow":
            src, dst, rest = value.split(",", 2)
            yield f"{n}-flow-to-unknown", swap(f"flow = {src}, 99,{rest}"), n
            yield f"{n}-flow-from-unknown", swap(f"flow = 99,{dst},{rest}"), n
        elif key == "node" and i > first_node:
            first_id = lines[first_node].partition("=")[2].split(",")[0]
            yield (f"{n}-node-duplicate-id",
                   swap(f"node ={first_id},{value.split(',', 1)[1]}"), n)
        if key != "flow":
            yield f"{n}-{key}-repeated", swap(f"{line}\n{line}"), n + 1


MUTANTS = [(f"{name}-{mid}", text, line)
           for name, base in (("readme", readme_config()),
                              ("explicit", EXPLICIT))
           for mid, text, line in mutations(base)]


def line_drops(text):
    """(id, config) for each key line of `text`, with that line left out."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, eq, _ = line.split("#", 1)[0].partition("=")
        if eq:
            yield (f"{i + 1}-{key.strip()}-dropped",
                   "\n".join(lines[:i] + lines[i + 1:]) + "\n")


DROPS = [(f"{name}-{mid}", text)
         for name, base in (("readme", readme_config()),
                            ("explicit", EXPLICIT))
         for mid, text in line_drops(base)]
# The two faults that are something the file lacks, so name no line.
LACKING = ("config needs a 'topology' or explicit 'node' lines",
           "explicit topologies need explicit 'flow' lines")


def drop_outcome(text):
    """None if `text` parses, else the ConfigError it raises."""
    try:
        parse_config(text)
    except ConfigError as exc:
        return exc
    return None


class TestMutatedConfigs:
    """Each line of two valid configs, broken one way at a time: the error
    is always a ConfigError naming the broken line, and nothing else
    escapes `parse_config`. Each key line left out: the rest parses, or
    its ConfigError names one of its lines, or the file lacks a topology
    or flows."""

    @pytest.mark.parametrize("base", [readme_config(), EXPLICIT],
                             ids=["readme", "explicit"])
    def test_the_unbroken_configs_parse(self, base):
        cfg = parse_config(base)
        assert len(cfg.flows) == 2
        # A flow line may repeat: the same traffic twice is two flows.
        flow = next(line for line in base.splitlines()
                    if line.startswith("flow"))
        assert len(parse_config(f"{base}{flow}\n").flows) == 3

    def test_every_mutation_kind_is_made(self):
        kinds = {mid.split("-", 3)[3] for mid, _, _ in MUTANTS}
        assert {"no-value", "repeated", "duplicate-id", "to-unknown",
                "from-unknown"} <= kinds
        assert any(k.startswith("bad-number") for k in kinds)

    @pytest.mark.parametrize("text, line", [m[1:] for m in MUTANTS],
                             ids=[m[0] for m in MUTANTS])
    def test_names_the_mutated_line(self, text, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == line, str(err.value)

    @pytest.mark.parametrize("text", [d[1] for d in DROPS],
                             ids=[d[0] for d in DROPS])
    def test_a_dropped_line_parses_or_names_a_line(self, text):
        # A whole key line left out: the rest is valid, or the error names
        # a line the mutant has, such as a flow line whose node is gone.
        err = drop_outcome(text)
        if err is not None and err.line_no is None:
            assert str(err) in LACKING
        elif err is not None:
            assert 1 <= err.line_no <= len(text.splitlines()), str(err)

    def test_which_dropped_lines_are_errors(self):
        errors = {}
        for mid, text in DROPS:
            err = drop_outcome(text)
            if err is not None:
                errors[mid] = err.line_no
        assert len(DROPS) == 19
        assert errors == {"readme-2-topology-dropped": None,
                          "explicit-2-node-dropped": 9,
                          "explicit-4-node-dropped": 9}


class TestReadmeConfigKeys:
    def test_knob_list_names_every_numeric_key(self):
        block = readme_config()
        # Knob lines are indented comments without '='; `range` has a
        # line of its own beside `node`.
        knobs = [k for line in re.findall(r"^#   ([a-z_, ]+)$", block, re.M)
                 for k in re.split(r",\s*", line.strip().rstrip(","))]
        assert len(knobs) == len(set(knobs))
        assert "#   range = " in block
        assert set(knobs) | {"range"} == _FLOAT_PARAMS | _INT_PARAMS

    def test_every_key_named_is_accepted(self):
        block = readme_config()
        keys = set(re.findall(r"^[#\s]*([a-z_]+) =", block, re.M))
        keys |= _FLOAT_PARAMS | _INT_PARAMS
        for key in sorted(keys):
            try:
                parse_config(f"topology = x_topo\n{key} = 1\n")
            except ConfigError as exc:
                assert "unknown key" not in str(exc), key


class TestSimParamsRecord:
    """SimParams is a NamedTuple value: it must stay immutable, hashable and
    picklable (a pooled sweep pickles it into each worker)."""
    PARAMS = SimParams(timers=TimerParams(ack_slot=0.003, base_timeout=0.007),
                       cw=16, pool_ttl=2.5, knowledge_cap=128)

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(self.PARAMS))
        assert back == self.PARAMS
        assert back.timers == TimerParams(ack_slot=0.003, base_timeout=0.007)
        assert back != SimParams()

    def test_equal_params_hash_equal(self):
        twin = SimParams(timers=TimerParams(ack_slot=0.003, base_timeout=0.007),
                         cw=16, pool_ttl=2.5, knowledge_cap=128)
        assert twin is not self.PARAMS
        assert twin == self.PARAMS and hash(twin) == hash(self.PARAMS)
        assert len({twin, self.PARAMS, SimParams()}) == 2

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.PARAMS.cw = 1
        assert self.PARAMS.cw == 16
