"""Tests for profile serialisation (save/load round-trips)."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.profiler import IntervalProfiler
from repro.core.serialize import (
    FORMAT_VERSION,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
    tree_from_dict,
    tree_to_dict,
)
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.errors import ConfigurationError
from repro.simhw import MachineConfig
from repro.simhw.memtrace import AccessPattern, MemSpec

M = MachineConfig(n_cores=4)


def sample_profile(compress=True):
    def program(tr):
        tr.compute(1000)
        spec = MemSpec(AccessPattern.STREAMING, bytes_touched=64 * 10_000)
        for _ in range(2):
            with tr.section("loop"):
                for i in range(5):
                    with tr.task():
                        tr.compute(2_000 + i, mem=spec)
                        with tr.lock(1):
                            tr.compute(100)

    return IntervalProfiler(M, compress=compress).profile(program)


class TestTreeRoundtrip:
    def test_lengths_preserved(self):
        tree = sample_profile().tree
        restored = tree_from_dict(tree_to_dict(tree))
        assert restored.serial_cycles() == pytest.approx(tree.serial_cycles())

    def test_structure_preserved(self):
        tree = sample_profile().tree
        restored = tree_from_dict(tree_to_dict(tree))
        assert restored.logical_nodes() == tree.logical_nodes()
        assert restored.max_depth() == tree.max_depth()
        restored.root.validate()

    def test_sharing_preserved(self):
        """Dictionary-compressed DAGs must not blow up into trees."""
        tree = sample_profile(compress=True).tree
        restored = tree_from_dict(tree_to_dict(tree))
        assert restored.unique_nodes() == tree.unique_nodes()

    def test_shared_nodes_are_identical_objects(self):
        root = Node(NodeKind.ROOT)
        shared = Node(NodeKind.SEC, name="s")
        task = shared.add(Node(NodeKind.TASK))
        task.add(Node(NodeKind.U, length=10))
        root.children.extend([shared, shared])
        restored = tree_from_dict(tree_to_dict(ProgramTree(root)))
        assert restored.root.children[0] is restored.root.children[1]

    def test_node_fields_preserved(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC, name="x", nowait=True))
        task = sec.add(Node(NodeKind.TASK, repeat=7))
        task.add(
            Node(
                NodeKind.L,
                length=123.5,
                lock_id=3,
                cpu_cycles=100.0,
                instructions=90.0,
                llc_misses=2.5,
            )
        )
        restored = tree_from_dict(tree_to_dict(ProgramTree(root)))
        leaf = restored.root.children[0].children[0].children[0]
        assert leaf.lock_id == 3
        assert leaf.length == 123.5
        assert leaf.llc_misses == 2.5
        assert restored.root.children[0].nowait is True
        assert restored.root.children[0].children[0].repeat == 7


class TestNodeSlotParity:
    """Guards against the Node analogue of the dropped-machine-field bug:
    the per-node dict is derived from ``Node.__slots__``, so a slot added
    later is serialised automatically instead of silently lost."""

    def test_node_dict_covers_every_slot(self):
        data = tree_to_dict(sample_profile().tree)
        expected = (set(Node.__slots__) - {"children"}) | {"children", "kind"}
        for raw in data["nodes"]:
            assert set(raw) == expected

    def test_counterset_fields_covered_by_section_dict(self):
        from dataclasses import fields

        from repro.simhw.counters import CounterSet

        data = profile_to_dict(sample_profile())
        section = next(iter(data["sections"].values()))
        assert {f.name for f in fields(CounterSet)} <= set(section)


class TestMalformedData:
    """Structural defects in loaded profiles must surface as
    ConfigurationError — never a bare KeyError/ValueError from deep inside
    (profiles are the format users hand-edit and pass between machines)."""

    def test_missing_node_field_raises_configuration_error(self):
        data = tree_to_dict(sample_profile().tree)
        del data["nodes"][0]["length"]
        with pytest.raises(ConfigurationError, match="node 0"):
            tree_from_dict(data)

    def test_bad_kind_raises_configuration_error(self):
        data = tree_to_dict(sample_profile().tree)
        data["nodes"][0]["kind"] = "not-a-kind"
        with pytest.raises(ConfigurationError):
            tree_from_dict(data)

    def test_negative_counter_raises_configuration_error(self):
        data = tree_to_dict(sample_profile().tree)
        leaf = next(n for n in data["nodes"] if not n["children"])
        leaf["cpu_cycles"] = -1.0
        with pytest.raises(ConfigurationError, match="cpu_cycles"):
            tree_from_dict(data)

    def test_missing_profile_key_raises_configuration_error(self):
        data = profile_to_dict(sample_profile())
        del data["machine"]
        with pytest.raises(ConfigurationError, match="malformed profile"):
            profile_from_dict(data)

    def test_negative_section_counter_raises_configuration_error(self):
        data = profile_to_dict(sample_profile())
        next(iter(data["sections"].values()))["cycles"] = -5.0
        with pytest.raises(ConfigurationError, match="cycles"):
            profile_from_dict(data)

    def test_negative_burden_raises_configuration_error(self):
        profile = sample_profile()
        profile.burdens["loop"] = {4: 1.2}
        data = profile_to_dict(profile)
        data["burdens"]["loop"]["4"] = -0.5
        with pytest.raises(ConfigurationError, match="burden"):
            profile_from_dict(data)

    def test_wrong_type_section_raises_configuration_error(self):
        data = profile_to_dict(sample_profile())
        data["sections"] = ["not", "a", "mapping"]
        with pytest.raises(ConfigurationError):
            profile_from_dict(data)


#: Any value ``json.loads`` can produce (NaN and infinities included).
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    """Every (key/index) path into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, prefix + (i,))


_VALID = profile_to_dict(sample_profile())
_VALID_PATHS = [p for p in _paths(_VALID) if p]


def _load_or_reject(data):
    """profile_from_dict's contract: a profile or a ConfigurationError."""
    try:
        profile = profile_from_dict(data)
    except ConfigurationError:
        return None
    # What loads must be usable, not a time bomb for the emulators.
    profile.tree.serial_cycles()
    return profile


class TestHostileInput:
    """Hostile JSON never escapes profile_from_dict as anything but a
    ConfigurationError."""

    @pytest.mark.parametrize("data", [[], "x", None, 3, 2.5, True])
    def test_non_object_top_level(self, data):
        with pytest.raises(ConfigurationError, match="JSON object"):
            profile_from_dict(data)

    @settings(max_examples=200, deadline=None)
    @given(data=_json_values)
    def test_arbitrary_values(self, data):
        _load_or_reject(data)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        path=st.sampled_from(_VALID_PATHS),
        value=_json_values | st.integers(-3, 12),
        delete=st.booleans(),
    )
    def test_one_field_replaced_or_deleted(self, path, value, delete):
        data = copy.deepcopy(_VALID)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if delete and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        _load_or_reject(data)

    def test_child_cycle_rejected(self):
        data = copy.deepcopy(_VALID)
        data["tree"]["nodes"][1]["children"] = [0]
        with pytest.raises(ConfigurationError, match="cycle"):
            profile_from_dict(data)

    def test_child_index_out_of_range_rejected(self):
        data = copy.deepcopy(_VALID)
        data["tree"]["nodes"][0]["children"] = [len(data["tree"]["nodes"])]
        with pytest.raises(ConfigurationError):
            profile_from_dict(data)


class TestLegacyProfiles:
    """A profile written before the DRAM-solve memo bound left
    MachineConfig (its machine carries ``dram_solve_cache``) loads,
    predicts as it did when it was written, and re-saves without the
    retired key."""

    PATH = Path(__file__).parent / "data" / "legacy_profile_v1.json"

    def test_loads_and_roundtrips_without_retired_key(self):
        data = json.loads(self.PATH.read_text())
        assert data["machine"]["dram_solve_cache"] == 64
        profile = profile_from_dict(data)
        assert profile.machine == MachineConfig(
            n_cores=4, context_switch_cycles=5.0
        )
        expected = copy.deepcopy(data)
        del expected["machine"]["dram_solve_cache"]
        assert profile_to_dict(profile) == expected

    def test_predictions_match_the_writer(self):
        from repro.core.prophet import ParallelProphet

        profile = profile_from_dict(json.loads(self.PATH.read_text()))
        prophet = ParallelProphet(machine=profile.machine)
        report = prophet.predict(
            profile, threads=[2, 4], methods=("ff", "syn"), memory_model=False
        )
        real = prophet.measure_real(profile, threads=[2, 4])
        got = [
            (e.method, e.n_threads, e.speedup)
            for e in report.estimates + real.estimates
        ]
        # Speedups the writing release computed from the same file.
        assert got == [
            ("ff", 2, 1.3617888220724532),
            ("syn", 2, 1.3617012046015626),
            ("ff", 4, 2.313852199501004),
            ("syn", 4, 2.2982736090498794),
            ("real", 2, 1.2733763424771263),
            ("real", 4, 1.8875729269064219),
        ]


class TestDagSharingRoundtrip:
    def test_compressed_profile_dag_roundtrip(self):
        """Round-trip a dictionary-compressed tree and assert the DAG shape
        — not just the counts: every shared subtree must come back as one
        shared object, with measurements bit-identical."""
        profile = sample_profile(compress=True)
        tree = profile.tree
        assert tree.unique_nodes() < tree.logical_nodes()  # sharing exists
        restored = tree_from_dict(tree_to_dict(tree))
        assert restored.unique_nodes() == tree.unique_nodes()
        assert restored.logical_nodes() == tree.logical_nodes()

        def object_census(t):
            seen = set()
            stack = [t.root]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.extend(node.children)
            return len(seen)

        # Physical object count equals unique_nodes: sharing is by object
        # identity, not equal copies.
        assert object_census(restored) == restored.unique_nodes()

        def measurements(t):
            out = []

            def visit(node):
                out.append(
                    (node.kind.value, node.length, node.cpu_cycles,
                     node.instructions, node.llc_misses, node.repeat)
                )
                for c in node.children:
                    visit(c)

            visit(t.root)
            return out

        assert measurements(restored) == measurements(tree)


class TestProfileRoundtrip:
    def test_full_roundtrip(self, tmp_path):
        profile = sample_profile()
        profile.burdens["loop"] = {2: 1.1, 4: 1.25}
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        restored = load_profile(path)

        assert restored.serial_cycles() == pytest.approx(profile.serial_cycles())
        assert restored.machine == profile.machine
        assert set(restored.sections) == {"loop"}
        assert restored.sections["loop"].invocations == 2
        assert restored.sections["loop"].total.llc_misses == pytest.approx(
            profile.sections["loop"].total.llc_misses
        )
        assert restored.burdens["loop"][4] == pytest.approx(1.25)
        assert restored.stats.annotation_events == profile.stats.annotation_events

    def test_burden_keys_are_ints(self, tmp_path):
        profile = sample_profile()
        profile.burdens["loop"] = {8: 1.5}
        path = tmp_path / "p.json"
        save_profile(profile, path)
        restored = load_profile(path)
        assert restored.burden_for("loop", 8) == pytest.approx(1.5)

    def test_predictions_identical_after_roundtrip(self, tmp_path):
        from repro import ParallelProphet

        prophet = ParallelProphet(machine=M)
        profile = sample_profile()
        path = tmp_path / "p.json"
        save_profile(profile, path)
        restored = load_profile(path)
        a = prophet.predict(profile, [4], memory_model=False)
        b = prophet.predict(restored, [4], memory_model=False)
        assert a.speedup(method="syn", n_threads=4) == pytest.approx(
            b.speedup(method="syn", n_threads=4)
        )

    def test_version_check(self):
        data = profile_to_dict(sample_profile())
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError):
            profile_from_dict(data)

    def test_json_is_plain(self, tmp_path):
        path = tmp_path / "p.json"
        save_profile(sample_profile(), path)
        data = json.loads(path.read_text())
        assert data["format_version"] == FORMAT_VERSION
        assert "tree" in data and "sections" in data

    def test_uncompressed_profile_roundtrip(self, tmp_path):
        profile = sample_profile(compress=False)
        path = tmp_path / "p.json"
        save_profile(profile, path)
        restored = load_profile(path)
        assert restored.compression is None
        assert restored.tree.unique_nodes() == profile.tree.unique_nodes()


class TestMachineParity:
    """Guards against the dropped-field bug: the serializer once listed
    machine fields by hand and silently lost any added after the seed
    (n_sockets, context_switch_cycles)."""

    def test_machine_dict_covers_every_field(self):
        from dataclasses import fields

        data = profile_to_dict(sample_profile())
        assert set(data["machine"]) == {f.name for f in fields(MachineConfig)}

    def test_non_default_machine_roundtrips_exactly(self, tmp_path):
        machine = MachineConfig(
            n_cores=4,
            n_sockets=2,
            context_switch_cycles=5.0,
        )

        def program(tr):
            with tr.section("s"):
                with tr.task():
                    tr.compute(1_000)

        profile = IntervalProfiler(machine).profile(program)
        path = tmp_path / "p.json"
        save_profile(profile, path)
        restored = load_profile(path)
        assert restored.machine == machine

    def test_old_ten_key_files_still_load(self):
        """Pre-fix profiles carried only the seed's ten machine keys; the
        missing fields must fall back to MachineConfig defaults."""
        data = profile_to_dict(sample_profile())
        legacy_keys = {
            "n_cores", "freq_ghz", "line_size", "llc_bytes", "llc_assoc",
            "base_miss_stall", "dram_peak_gbs", "dram_queue_gain",
            "timeslice_cycles", "tracer_overhead_cycles",
        }
        data["machine"] = {
            k: v for k, v in data["machine"].items() if k in legacy_keys
        }
        restored = profile_from_dict(data)
        assert restored.machine.n_cores == M.n_cores
        assert restored.machine.n_sockets == MachineConfig().n_sockets
        assert restored.machine.context_switch_cycles == 0.0


class TestTraceDrivenProfiler:
    def test_trace_driven_counts_reuse(self):
        """Trace-driven profiling sees cross-segment reuse: the second sweep
        over a resident region hits, unlike per-segment analytic counting."""
        spec = MemSpec(
            AccessPattern.STREAMING,
            bytes_touched=M.llc_bytes // 4,
            working_set=M.llc_bytes // 4,
        )

        def program(tr):
            with tr.section("s"):
                with tr.task():
                    tr.compute(1_000, mem=spec)
                with tr.task():
                    tr.compute(1_000, mem=spec)

        analytic = IntervalProfiler(M, trace_driven=False).profile(program)
        traced = IntervalProfiler(M, trace_driven=True).profile(program)
        a = analytic.sections["s"].total.llc_misses
        t = traced.sections["s"].total.llc_misses
        # Analytic charges cold misses per segment; the simulated cache
        # keeps the region resident across the two tasks.
        assert t < 0.75 * a

    def test_trace_driven_matches_analytic_for_streaming_overflow(self):
        spec = MemSpec(
            AccessPattern.STREAMING, bytes_touched=4 * M.llc_bytes
        )

        def program(tr):
            with tr.section("s"):
                with tr.task():
                    tr.compute(1_000, mem=spec)

        analytic = IntervalProfiler(M, trace_driven=False).profile(program)
        traced = IntervalProfiler(M, trace_driven=True).profile(program)
        a = analytic.sections["s"].total.llc_misses
        t = traced.sections["s"].total.llc_misses
        assert t == pytest.approx(a, rel=0.1)

    def test_trace_driven_deterministic(self):
        spec = MemSpec(
            AccessPattern.RANDOM,
            bytes_touched=M.llc_bytes,
            working_set=2 * M.llc_bytes,
        )

        def program(tr):
            with tr.section("s"):
                with tr.task():
                    tr.compute(1_000, mem=spec)

        a = IntervalProfiler(M, trace_driven=True, trace_seed=5).profile(program)
        b = IntervalProfiler(M, trace_driven=True, trace_seed=5).profile(program)
        assert a.sections["s"].total.llc_misses == pytest.approx(
            b.sections["s"].total.llc_misses
        )


class TestPipelineSerialization:
    def test_pipeline_tree_roundtrips(self):
        def program(tr):
            with tr.section("pipe", pipeline=True):
                for _ in range(4):
                    with tr.task():
                        with tr.stage("a"):
                            tr.compute(1_000)
                        with tr.stage("b"):
                            tr.compute(3_000)

        profile = IntervalProfiler(M).profile(program)
        restored = tree_from_dict(tree_to_dict(profile.tree))
        sec = restored.top_level_sections()[0]
        assert sec.pipeline is True
        restored.root.validate()
        # Pipeline emulation gives identical results after the round-trip.
        from repro.core.pipeline import ff_pipeline_cycles
        from repro.runtime import RuntimeOverheads

        zero = RuntimeOverheads().scaled(0.0)
        a = ff_pipeline_cycles(profile.tree.top_level_sections()[0], 2, overheads=zero)
        b = ff_pipeline_cycles(sec, 2, overheads=zero)
        assert a == pytest.approx(b)

    def test_nowait_flag_roundtrips(self):
        def program(tr):
            with tr.section("x", barrier=False):
                with tr.task():
                    tr.compute(100)
            with tr.section("y"):
                with tr.task():
                    tr.compute(100)

        profile = IntervalProfiler(M).profile(program)
        restored = tree_from_dict(tree_to_dict(profile.tree))
        secs = restored.top_level_sections()
        assert secs[0].nowait is True
        assert secs[1].nowait is False
