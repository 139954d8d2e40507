"""Independent model of a served ownership graph and the output checks.

Nothing here imports ``repro``: the model is rebuilt from the extract's
CSV files and the mutation deltas the benchmark sent, and every relation
the service serves is recomputed from the paper's definitions:

* control (Def. 2.3): a worklist fixpoint of pooled votes per source;
* beneficial owners: integrated ownership from a dense
  ``numpy.linalg.solve`` of ``(I - W)``, plus vote-majority control;
* close links (Def. 2.6): accumulated ownership summed over simple
  paths (bounded at the served ``max_path_depth``), then the direct,
  reverse and common-third-party rules.

Threshold tests are evaluated twice, just above and just below the
threshold (``EPS``): a served relation must contain the strict one and
lie inside the loose one, so float summation order can never flip a
verdict, while a dropped or invented pair still fails.

Every check returns a list of error strings (empty = pass).
"""

from __future__ import annotations

import copy
import csv
import re
from pathlib import Path

import numpy as np

COMPANY, PERSON = "C", "P"
CONTROL_THRESHOLD = 0.5
CLOSE_LINK_THRESHOLD = 0.2
UBO_THRESHOLD = 0.25
#: served ``SnapshotConfig.max_path_depth``: Phi sums simple paths of at
#: most this many edges
MAX_PATH_DEPTH = 12
FAMILY_CLASSES = ("partner_of", "sibling_of", "parent_of")
EPS = 1e-9
#: served integrated shares are rounded to 6 decimals
SHARE_TOLERANCE = 2e-6

_VERSION = re.compile(rb'^\{"version": (\d+)')


def body_version(body: bytes) -> int | None:
    """The snapshot version a JSON body claims (its leading field)."""
    match = _VERSION.match(body)
    return int(match.group(1)) if match else None


class Model:
    """The benchmark's own copy of the graph: nodes and shareholdings."""

    def __init__(self) -> None:
        self.nodes: dict[str, tuple[str, dict]] = {}
        #: shareholding edges in insertion order: [owner, company, w, extra]
        self.edges: list[tuple[str, str, float, dict]] = []

    @classmethod
    def from_extract(cls, directory: Path) -> "Model":
        model = cls()
        for name, label in (("companies.csv", COMPANY), ("persons.csv", PERSON)):
            with open(directory / name, newline="") as handle:
                for row in csv.DictReader(handle):
                    props = {k: v for k, v in row.items() if k != "id" and v}
                    model.nodes[row["id"]] = (label, props)
        with open(directory / "shareholdings.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                extra = {"right": row["right"]} if row.get("right") else {}
                model.edges.append((row["owner"], row["company"], float(row["w"]), extra))
        return model

    def copy(self) -> "Model":
        other = Model()
        other.nodes = copy.deepcopy(self.nodes)
        other.edges = list(self.edges)
        return other

    def apply(self, deltas: list[dict]) -> None:
        for delta in deltas:
            op = delta["op"]
            if op == "add_company":
                self.nodes[delta["id"]] = (COMPANY, dict(delta.get("properties", {})))
            elif op == "add_person":
                self.nodes[delta["id"]] = (PERSON, dict(delta.get("properties", {})))
            elif op == "add_shareholding":
                self.edges.append(
                    (delta["owner"], delta["company"], float(delta["share"]), {})
                )
            elif op == "remove_shareholding":
                key = (delta["owner"], delta["company"])
                kept = [e for e in self.edges if (e[0], e[1]) != key]
                if len(kept) == len(self.edges):
                    raise ValueError(f"no shareholding {key}")
                self.edges = kept
            elif op == "set_property":
                self.nodes[delta["id"]][1][delta["name"]] = delta.get("value")
            else:
                raise ValueError(f"unsupported op {op!r}")

    def label(self, node: str) -> str | None:
        entry = self.nodes.get(node)
        return entry[0] if entry else None

    def companies(self) -> list[str]:
        return [n for n, (label, _) in self.nodes.items() if label == COMPANY]

    def persons(self) -> list[str]:
        return [n for n, (label, _) in self.nodes.items() if label == PERSON]

    def holdings(self) -> dict[str, dict[str, float]]:
        """owner -> company -> summed share (parallel edges merged)."""
        merged: dict[str, dict[str, float]] = {}
        for owner, company, w, _ in self.edges:
            row = merged.setdefault(owner, {})
            row[company] = row.get(company, 0.0) + w
        return merged


class Oracle:
    """Every served relation of one graph version, recomputed."""

    def __init__(self, model: Model):
        self.model = model
        holdings = model.holdings()
        self.holdings = holdings
        self.control_strict = _control(model, CONTROL_THRESHOLD + EPS)
        self.control_loose = _control(model, CONTROL_THRESHOLD - EPS)
        self._integrated: dict[str, np.ndarray] | None = None
        self._index: dict[str, int] | None = None
        self._close: tuple[set, set] | None = None
        self._adjacency: dict | None = None
        self._control_pairs: tuple[set, set] | None = None

    # -- integrated ownership (dense solve) ----------------------------

    def integrated(self) -> tuple[dict[str, int], dict[str, np.ndarray]]:
        if self._integrated is None:
            nodes = list(self.model.nodes)
            index = {n: i for i, n in enumerate(nodes)}
            n = len(nodes)
            w = np.zeros((n, n))
            for owner, company, share, _ in self.model.edges:
                w[index[owner], index[company]] += share
            persons = self.model.persons()
            rhs = np.zeros((n, len(persons)))
            for j, person in enumerate(persons):
                rhs[index[person], j] = 1.0
            # row p of Y = (I - W)^-1 W is z_p^T W with (I - W)^T z_p = e_p
            z = np.linalg.solve((np.eye(n) - w).T, rhs)
            rows = (z.T @ w)
            self._index = index
            self._integrated = {p: rows[j] for j, p in enumerate(persons)}
        return self._index, self._integrated

    def ubo(self, company: str, threshold: float) -> tuple[dict, set, set]:
        """(person -> integrated share, required owners, allowed owners)."""
        index, rows = self.integrated()
        column = index[company]
        shares, required, allowed = {}, set(), set()
        for person, row in rows.items():
            share = float(row[column])
            shares[person] = share
            if share >= threshold + EPS or company in self.control_strict[person]:
                required.add(person)
            if share >= threshold - EPS or company in self.control_loose[person]:
                allowed.add(person)
        return shares, required, allowed

    # -- close links (Def. 2.6) -----------------------------------------

    def close_links(self) -> tuple[set, set]:
        """(strict, loose) sets of unordered company pairs ``x <= y``."""
        if self._close is None:
            phi = {s: _phi_from(self.holdings, s) for s in self.model.nodes}
            companies = set(self.model.companies())
            self._close = (
                _close_pairs(phi, companies, CLOSE_LINK_THRESHOLD + EPS),
                _close_pairs(phi, companies, CLOSE_LINK_THRESHOLD - EPS),
            )
        return self._close

    def adjacency(self) -> dict:
        if self._adjacency is None:
            self._adjacency = _adjacency(self)
        return self._adjacency

    def control_pairs(self) -> tuple[set, set]:
        if self._control_pairs is None:
            self._control_pairs = tuple(
                {(s, t) for s, row in rows.items() for t in row}
                for rows in (self.control_strict, self.control_loose)
            )
        return self._control_pairs


def _control(model: Model, threshold: float) -> dict[str, set[str]]:
    """source -> companies it controls (Def. 2.3), for every node."""
    out: dict[str, list[tuple[str, float]]] = {}
    for owner, company, w, _ in model.edges:
        out.setdefault(owner, []).append((company, w))
    result = {}
    for source in model.nodes:
        controlled = {source}
        votes: dict[str, float] = {}
        work = [source]
        while work:
            holder = work.pop()
            for target, w in out.get(holder, ()):
                if target in controlled:
                    continue
                votes[target] = votes.get(target, 0.0) + w
                if votes[target] > threshold:
                    controlled.add(target)
                    work.append(target)
        controlled.discard(source)
        result[source] = controlled
    return result


def _phi_from(holdings: dict[str, dict[str, float]], source: str) -> dict[str, float]:
    """Accumulated ownership of ``source``: the share product summed over
    every simple path of at most ``MAX_PATH_DEPTH`` edges."""
    totals: dict[str, float] = {}
    on_path = {source}

    def walk(node: str, product: float, depth: int) -> None:
        for child, share in holdings.get(node, {}).items():
            if child in on_path:
                continue
            weight = product * share
            totals[child] = totals.get(child, 0.0) + weight
            if depth + 1 < MAX_PATH_DEPTH:
                on_path.add(child)
                walk(child, weight, depth + 1)
                on_path.discard(child)

    walk(source, 1.0, 0)
    return totals


def _close_pairs(phi: dict, companies: set, threshold: float) -> set[tuple[str, str]]:
    pairs = set()
    for source, row in phi.items():
        significant = [
            c for c, v in row.items() if c in companies and c != source and v >= threshold
        ]
        if source in companies:
            for target in significant:
                pairs.add(tuple(sorted((source, target))))
        for i, x in enumerate(significant):
            for y in significant[i + 1:]:
                pairs.add(tuple(sorted((x, y))))
    return pairs


def _within(name: str, got: set, strict: set, loose: set) -> list[str]:
    errors = []
    missing = strict - got
    extra = got - loose
    if missing:
        errors.append(f"{name}: {len(missing)} missing, e.g. {sorted(missing)[:2]}")
    if extra:
        errors.append(f"{name}: {len(extra)} unexpected, e.g. {sorted(extra)[:2]}")
    return errors


# ----------------------------------------------------------------------
# checks of one served body against one version's oracle
# ----------------------------------------------------------------------


def check_body(path: str, payload: dict, oracle: Oracle, version: int) -> list[str]:
    """Dispatch on the request path; ``payload`` is the decoded body."""
    if payload.get("version") != version:
        return [f"{path}: claims version {payload.get('version')}, expected {version}"]
    route, _, query = path.partition("?")
    params = dict(p.split("=", 1) for p in query.split("&") if p)
    parts = route.strip("/").split("/")
    if parts[0] == "ubo":
        threshold = float(params.get("threshold", UBO_THRESHOLD))
        return check_ubo(payload, oracle, parts[1], threshold)
    if parts[0] == "neighbors":
        return check_neighbors(payload, oracle, parts[1], int(params.get("depth", 1)))
    if parts[0] == "control":
        return check_control(payload, oracle, params.get("source"))
    if parts[0] == "close-links":
        return check_close_links(payload, oracle)
    if parts[0] == "family":
        return check_family_structure(payload, oracle.model)
    return [f"{path}: no check for this endpoint"]


def check_ubo(payload: dict, oracle: Oracle, company: str, threshold: float) -> list[str]:
    errors = []
    if payload.get("company") != company or payload.get("threshold") != threshold:
        errors.append(f"ubo {company}: wrong company/threshold echo")
    shares, required, allowed = oracle.ubo(company, threshold)
    owners = payload.get("owners", [])
    got = {o["person"] for o in owners}
    errors += _within(f"ubo {company}@{threshold}", got, required, allowed)
    for owner in owners:
        person = owner["person"]
        expected = shares.get(person)
        if expected is None or abs(owner["integrated_share"] - expected) > SHARE_TOLERANCE:
            errors.append(
                f"ubo {company}: {person} share {owner['integrated_share']} != {expected}"
            )
            continue
        in_strict = company in oracle.control_strict[person]
        in_loose = company in oracle.control_loose[person]
        if in_strict == in_loose and owner["controls"] != in_strict:
            errors.append(f"ubo {company}: {person} controls flag wrong")
        # the served basis compares against the default threshold even
        # for a custom one, so it is only checked at the default
        if threshold == UBO_THRESHOLD and owner["basis"] != _basis(
            owner["integrated_share"], owner["controls"]
        ):
            errors.append(f"ubo {company}: {person} basis {owner['basis']!r} wrong")
    keys = [(-o["integrated_share"], str(o["person"])) for o in owners]
    if keys != sorted(keys):
        errors.append(f"ubo {company}: owners not sorted by share")
    return errors


def _basis(share: float, controls: bool) -> str:
    if share >= UBO_THRESHOLD:
        return "ownership+control" if controls else "ownership"
    return "control"


def check_control(payload: dict, oracle: Oracle, source: str | None) -> list[str]:
    if source is not None:
        strict = {(source, t) for t in oracle.control_strict.get(source, ())}
        loose = {(source, t) for t in oracle.control_loose.get(source, ())}
    else:
        strict, loose = oracle.control_pairs()
    got = {tuple(p) for p in payload.get("pairs", [])}
    errors = _within(f"control source={source}", got, strict, loose)
    if payload.get("count") != len(payload.get("pairs", [])):
        errors.append("control: count disagrees with pairs")
    return errors


def check_close_links(payload: dict, oracle: Oracle) -> list[str]:
    strict, loose = oracle.close_links()
    got = {tuple(p) for p in payload.get("pairs", [])}
    errors = _within("close-links", got, strict, loose)
    if payload.get("count") != len(payload.get("pairs", [])):
        errors.append("close-links: count disagrees with pairs")
    return errors


def check_family_structure(payload: dict, model: Model) -> list[str]:
    """Both ends are persons of this version, the class is a family class."""
    errors = []
    links = payload.get("links", [])
    if payload.get("count") != len(links):
        errors.append("family: count disagrees with links")
    for x, y, cls in links:
        if cls not in FAMILY_CLASSES:
            errors.append(f"family: unknown class {cls!r}")
        if x == y or model.label(x) != PERSON or model.label(y) != PERSON:
            errors.append(f"family: {x}-{y} is not a pair of persons")
        if len(errors) > 5:
            break
    return errors


def family_quality(links: list, truth_links: list, persons: set) -> tuple[float, float]:
    """(precision, recall) of served links against the planted truth,
    over links whose both ends were planted persons."""
    served = {tuple(link) for link in links if link[0] in persons and link[1] in persons}
    truth = {tuple(link) for link in truth_links}
    hits = len(served & truth)
    precision = hits / len(served) if served else 0.0
    recall = hits / len(truth) if truth else 0.0
    return precision, recall


def check_neighbors(payload: dict, oracle: Oracle, node: str, depth: int) -> list[str]:
    """Node, its shareholding/control/close-link edges and (for companies,
    whose out-edges carry no family links) its depth-``depth`` reach."""
    model = oracle.model
    errors = []
    label, props = model.nodes.get(node, (None, None))
    if payload.get("id") != node or payload.get("label") != label:
        return [f"neighbors {node}: wrong id/label"]
    if payload.get("properties") != props:
        errors.append(f"neighbors {node}: properties differ")
    adjacency = oracle.adjacency()
    got_out = sorted(
        (e["target"], e["properties"].get("w")) for e in payload["out"] if e["label"] == "S"
    )
    got_in = sorted(
        (e["source"], e["properties"].get("w")) for e in payload["in"] if e["label"] == "S"
    )
    if got_out != adjacency["S", "out"].get(node, []) or got_in != adjacency["S", "in"].get(
        node, []
    ):
        errors.append(f"neighbors {node}: shareholding edges differ")
    for direction, key in (("out", "target"), ("in", "source")):
        for edge_label in ("control", "close_link"):
            got = {e[key] for e in payload[direction] if e["label"] == edge_label}
            errors += _within(
                f"neighbors {node} {edge_label} {direction}",
                got,
                adjacency[edge_label, direction, "strict"].get(node, set()),
                adjacency[edge_label, direction, "loose"].get(node, set()),
            )
    if depth > 1 and label == COMPANY:
        got = set(payload.get("reachable", []))
        errors += _within(
            f"neighbors {node} reachable",
            got,
            _reach(adjacency["succ", "strict"], node, depth),
            _reach(adjacency["succ", "loose"], node, depth),
        )
    return errors


def _adjacency(oracle: "Oracle") -> dict:
    """Per-node edge lists of the augmented graph, strict and loose."""
    adjacency: dict = {("S", "out"): {}, ("S", "in"): {}}
    for owner, company, w, _ in oracle.model.edges:
        adjacency["S", "out"].setdefault(owner, []).append((company, w))
        adjacency["S", "in"].setdefault(company, []).append((owner, w))
    for rows in (adjacency["S", "out"], adjacency["S", "in"]):
        for row in rows.values():
            row.sort()
    control = dict(zip(("strict", "loose"), oracle.control_pairs()))
    close = dict(zip(("strict", "loose"), oracle.close_links()))
    for mode in ("strict", "loose"):
        close_both = close[mode] | {(y, x) for x, y in close[mode]}
        succ: dict[str, set[str]] = {}
        for owner, row in oracle.holdings.items():
            succ.setdefault(owner, set()).update(row)
        for edge_label, pairs in (("control", control[mode]), ("close_link", close_both)):
            out, into = {}, {}
            for x, y in pairs:
                out.setdefault(x, set()).add(y)
                into.setdefault(y, set()).add(x)
                succ.setdefault(x, set()).add(y)
            adjacency[edge_label, "out", mode] = out
            adjacency[edge_label, "in", mode] = into
        adjacency["succ", mode] = succ
    return adjacency


def _reach(succ: dict, start: str, depth: int) -> set[str]:
    seen, frontier = {start}, {start}
    for _ in range(depth):
        frontier = {n for f in frontier for n in succ.get(f, ()) if n not in seen}
        seen |= frontier
    seen.discard(start)
    return seen


# ----------------------------------------------------------------------
# self-tests: each check must reject a corrupted copy of a body it passed
# ----------------------------------------------------------------------


def corruptions(path: str, payload: dict) -> list[tuple[str, dict]]:
    """Corrupted variants of a body that passed its check."""
    route = path.partition("?")[0].strip("/").split("/")[0]
    variants = []
    stale = copy.deepcopy(payload)
    stale["version"] = payload["version"] - 1
    variants.append(("stale version", stale))
    if route == "ubo":
        bad = copy.deepcopy(payload)
        if bad["owners"]:
            bad["owners"][0]["integrated_share"] += 0.01
            variants.append(("perturbed share", bad))
        else:
            bad["owners"].append(
                {"person": "P-none", "integrated_share": 0.3, "controls": False,
                 "basis": "ownership"}
            )
            variants.append(("invented owner", bad))
    elif route in ("control", "close-links") and payload["pairs"]:
        bad = copy.deepcopy(payload)
        bad["pairs"].pop()
        bad["count"] -= 1
        variants.append(("dropped pair", bad))
    elif route == "family" and payload["links"]:
        bad = copy.deepcopy(payload)
        bad["links"][0][2] = "cousin_of"
        variants.append(("bogus class", bad))
    elif route == "neighbors":
        bad = copy.deepcopy(payload)
        shares = [e for e in bad["out"] + bad["in"] if e["label"] == "S"]
        if shares:
            shares[0]["properties"]["w"] += 0.01
            variants.append(("perturbed share", bad))
    return variants


def self_test(path: str, payload: dict, oracle: Oracle, version: int) -> list[str]:
    """Errors for every corruption the check failed to reject."""
    errors = []
    for what, bad in corruptions(path, payload):
        if not check_body(path, bad, oracle, version):
            errors.append(f"self-test: check of {path} accepted a {what}")
    return errors
