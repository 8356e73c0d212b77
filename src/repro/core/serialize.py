"""Profile persistence: save/load program profiles as JSON.

Profiling is the expensive step of the workflow (it runs the whole annotated
program); emulation is cheap and parameterised.  Persisting profiles lets a
user profile once and re-predict under different thread counts, schedules,
and paradigms later — or on another machine's calibration.

The program tree is a DAG after dictionary compression (shared canonical
subtrees), so nodes are serialised as a flat table keyed by id with child
references, preserving sharing exactly; a round-trip neither duplicates
shared nodes nor changes any measurement.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Union

from repro.core.compress import CompressionStats
from repro.core.profiler import ProfileStats, ProgramProfile, SectionCounters
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.errors import ConfigurationError
from repro.simhw.counters import CounterSet
from repro.simhw.machine import MachineConfig

#: Format version; bumped on incompatible layout changes.
FORMAT_VERSION = 1


# ------------------------------------------------------------------ tree

#: Per-node scalar fields, derived from ``Node.__slots__`` the same way the
#: machine dict is derived from ``fields(MachineConfig)``: a hand-written
#: list silently dropped ``pipeline`` when it was added after the seed, so
#: any slot added to Node later is serialised automatically.  ``kind`` is
#: encoded by value and ``children`` by id reference, so both are excluded.
_NODE_SCALAR_FIELDS = tuple(
    s for s in Node.__slots__ if s not in ("kind", "children")
)

#: The subset of scalar fields the Node constructor accepts; anything else
#: (``pipeline`` today) is restored by attribute assignment after build.
_NODE_CTOR_FIELDS = (
    "name",
    "length",
    "lock_id",
    "repeat",
    "cpu_cycles",
    "instructions",
    "llc_misses",
    "nowait",
)

#: Measurement fields that must load as non-negative numbers.
_NODE_COUNTER_FIELDS = ("cpu_cycles", "instructions", "llc_misses")


def tree_to_dict(tree: ProgramTree) -> dict[str, Any]:
    """Flatten a (possibly DAG-shaped) tree into an id-keyed node table."""
    ids: dict[int, int] = {}
    nodes: list[dict[str, Any]] = []

    def visit(node: Node) -> int:
        key = id(node)
        if key in ids:
            return ids[key]
        # Reserve the slot before recursing (children cannot cycle back —
        # trees/DAGs only — but this keeps ids in discovery order).
        idx = len(nodes)
        ids[key] = idx
        nodes.append({})
        nodes[idx] = {
            "kind": node.kind.value,
            **{f: getattr(node, f) for f in _NODE_SCALAR_FIELDS},
            "children": [visit(c) for c in node.children],
        }
        return idx

    root_idx = visit(tree.root)
    return {"root": root_idx, "nodes": nodes}


def tree_from_dict(data: dict[str, Any]) -> ProgramTree:
    """Rebuild a tree/DAG from :func:`tree_to_dict` output.

    Malformed node tables (missing fields, wrong types, negative
    measurements, child references that dangle or form a cycle) raise
    :class:`~repro.errors.ConfigurationError` rather than leaking bare
    ``KeyError``/``ValueError`` from deep inside."""
    try:
        raw_nodes = data["nodes"]
        root = data["root"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed node table: {exc!r}") from exc
    if not isinstance(raw_nodes, list):
        raise ConfigurationError(
            f"node table must be a list, got {type(raw_nodes).__name__}"
        )
    built: list[Node | None] = [None] * len(raw_nodes)
    #: Nodes whose children are being built: meeting one again is a cycle.
    open_ids: set[int] = set()

    def ref(value: Any, where: str) -> int:
        if type(value) is not int or not 0 <= value < len(raw_nodes):
            raise ConfigurationError(
                f"{where}: {value!r} is not an index into the "
                f"{len(raw_nodes)}-node table"
            )
        return value

    def build(idx: int) -> Node:
        cached = built[idx]
        if cached is not None:
            return cached
        if idx in open_ids:
            raise ConfigurationError(f"node {idx}: child references form a cycle")
        raw = raw_nodes[idx]
        try:
            for f in _NODE_COUNTER_FIELDS:
                value = raw[f]
                if value < 0:
                    raise ConfigurationError(
                        f"node {idx}: {f} must be >= 0, got {value!r}"
                    )
            node = Node(
                NodeKind(raw["kind"]),
                **{f: raw[f] for f in _NODE_CTOR_FIELDS},
            )
            children = raw["children"]
            if not isinstance(children, list):
                raise TypeError(f"children must be a list, got {children!r}")
        except ConfigurationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed node {idx} in profile data: {exc!r}"
            ) from exc
        # Slots outside the constructor signature round-trip by assignment
        # (absent in older files: keep the freshly-built node's default).
        for f in _NODE_SCALAR_FIELDS:
            if f not in _NODE_CTOR_FIELDS and f in raw:
                setattr(node, f, raw[f])
        open_ids.add(idx)
        node.children = [build(ref(c, f"node {idx} child")) for c in children]
        open_ids.discard(idx)
        built[idx] = node
        return node

    return ProgramTree(build(ref(root, "root")))


# ------------------------------------------------------------------ profile

#: Machine keys older files carry for knobs since removed from
#: :class:`MachineConfig` (the DRAM-solve memo bound is a constant now);
#: dropped on load so those files still load.
_RETIRED_MACHINE_KEYS = ("dram_solve_cache",)


def profile_to_dict(profile: ProgramProfile) -> dict[str, Any]:
    """Serialise a whole profile (tree, counters, machine, burdens)."""
    return {
        "format_version": FORMAT_VERSION,
        # Enumerate dataclass fields instead of hand-listing them: a
        # hand-written dict silently dropped fields added after the seed
        # (n_sockets, context_switch_cycles), so NUMA and context-switch
        # configs lost those knobs on round-trip.
        "machine": {
            f.name: getattr(profile.machine, f.name)
            for f in fields(MachineConfig)
        },
        "tree": tree_to_dict(profile.tree),
        "sections": {
            name: {
                "instructions": sc.total.instructions,
                "cycles": sc.total.cycles,
                "llc_misses": sc.total.llc_misses,
                "invocations": sc.invocations,
            }
            for name, sc in profile.sections.items()
        },
        "stats": {
            "net_program_cycles": profile.stats.net_program_cycles,
            "gross_tracer_cycles": profile.stats.gross_tracer_cycles,
            "annotation_events": profile.stats.annotation_events,
        },
        "compression": (
            {
                "logical_nodes": profile.compression.logical_nodes,
                "nodes_before": profile.compression.nodes_before,
                "nodes_after": profile.compression.nodes_after,
            }
            if profile.compression is not None
            else None
        ),
        "burdens": {
            name: {str(t): beta for t, beta in table.items()}
            for name, table in profile.burdens.items()
        },
    }


def profile_from_dict(data: dict[str, Any]) -> ProgramProfile:
    """Rebuild a profile serialised by :func:`profile_to_dict`.

    Any structural defect in the loaded data — missing keys, wrong types,
    negative-valued counters or burdens — surfaces as
    :class:`~repro.errors.ConfigurationError`, never a bare
    ``KeyError``/``ValueError`` (profiles are the format users hand-edit
    and pass between machines, so load errors must say what is wrong)."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"profile data must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported profile format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        machine = MachineConfig(
            **{
                k: v
                for k, v in data["machine"].items()
                if k not in _RETIRED_MACHINE_KEYS
            }
        )
        tree = tree_from_dict(data["tree"])
        sections = {}
        for name, raw in data["sections"].items():
            for f in ("instructions", "cycles", "llc_misses", "invocations"):
                if raw[f] < 0:
                    raise ConfigurationError(
                        f"section {name!r}: {f} must be >= 0, got {raw[f]!r}"
                    )
            sections[name] = SectionCounters(
                name=name,
                total=CounterSet(
                    instructions=raw["instructions"],
                    cycles=raw["cycles"],
                    llc_misses=raw["llc_misses"],
                ),
                invocations=raw["invocations"],
            )
        stats = ProfileStats(**data["stats"])
        compression = (
            CompressionStats(**data["compression"])
            if data.get("compression") is not None
            else None
        )
        profile = ProgramProfile(
            tree=tree,
            sections=sections,
            machine=machine,
            stats=stats,
            compression=compression,
        )
        for name, table in data.get("burdens", {}).items():
            for t, beta in table.items():
                if beta < 0:
                    raise ConfigurationError(
                        f"burden for {name!r} at t={t}: "
                        f"must be >= 0, got {beta!r}"
                    )
            profile.burdens[name] = {int(t): beta for t, beta in table.items()}
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(
            f"malformed profile data: {exc!r}"
        ) from exc
    except RecursionError as exc:
        raise ConfigurationError(
            "malformed profile data: tree nested too deeply"
        ) from exc
    return profile


def save_profile(profile: ProgramProfile, path: Union[str, Path]) -> None:
    """Write a profile to ``path`` as JSON."""
    Path(path).write_text(json.dumps(profile_to_dict(profile)))


def load_profile(path: Union[str, Path]) -> ProgramProfile:
    """Read a profile written by :func:`save_profile`."""
    return profile_from_dict(json.loads(Path(path).read_text()))
