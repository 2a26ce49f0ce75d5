"""Output checks: failure counts, the stored reference, and output digests.

For the reference seed at full size, every verdict must equal the stored
reference, every chain value must lie within ``VALUE_RTOL`` of it, and the
conjecture violation count and dk verdicts must match exactly.  For any
other seed or size, no theorem record may fail.  Margins are not compared:
they are differences of values and inherit the values' agreement.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass, field

from workloads import Campaign

VALUE_RTOL = 1e-12
REFERENCE_SEED = 1
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Record fields that must match the reference exactly.
EXACT_FIELDS = ("suite", "norm", "params", "labels", "relations", "pass", "link_pass", "verdict", "violations", "count")


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _reduce(record: dict) -> dict:
    out = {key: record[key] for key in EXACT_FIELDS if key in record}
    out["values"] = record.get("values")
    return out


@dataclass
class Outcome:
    """What one campaign list produced: counts, problems, reduced records."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reduced: dict[str, object] = field(default_factory=dict)


def inspect(outdir: str, campaigns: list[Campaign], exit_codes: list) -> Outcome:
    """Count attempted and failed records and flag unexpected exit codes.

    A failed record is a theorem record with ``pass: false`` or a record
    lost to a raised error or a nonzero exit.  Probe findings are results.
    """
    res = Outcome()
    for camp, code in zip(campaigns, exit_codes):
        label = " ".join(camp.argv[:3])
        if camp.records == 0:  # report: reads back an output, writes a summary
            if code != 0:
                res.problems.append(f"{label}: exit {code}")
            continue
        path = os.path.join(outdir, camp.out)
        records = _read_jsonl(path) if os.path.exists(path) else []
        failing = sum(1 for r in records if camp.theorem and not r.get("pass"))
        lost = max(camp.records - len(records), 0)
        res.attempted += camp.records
        res.failed += failing + lost
        expected_code = 1 if failing else 0
        if code != expected_code:
            res.problems.append(f"{label}: exit {code}, expected {expected_code}")
        if len(records) != camp.records:
            res.problems.append(f"{label}: {len(records)} records, expected {camp.records}")
        res.reduced[camp.out] = [_reduce(r) for r in records]
        violations = path + ".violations.jsonl"  # written by the conjecture suite
        if os.path.exists(violations):
            res.reduced[camp.out + ".violations"] = len(_read_jsonl(violations))
    if res.failed:
        res.problems.append(f"{res.failed} of {res.attempted} records failed")
    return res


def _close(a, b) -> bool:
    if a == b:
        return True
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b))
    return False


def compare(reduced: dict, reference: dict, limit: int = 5) -> list[str]:
    """Differences between reduced outputs and a stored reference."""
    problems: list[str] = []
    for name in sorted(set(reduced) | set(reference)):
        got, want = reduced.get(name), reference.get(name)
        if not isinstance(want, list) or not isinstance(got, list) or len(got) != len(want):
            if got != want:
                problems.append(f"{name}: {_size(got)} != reference {_size(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            bad = [k for k in EXACT_FIELDS if g.get(k) != w.get(k)]
            gv, wv = g.get("values") or [], w.get("values") or []
            if len(gv) != len(wv) or not all(_close(x, y) for x, y in zip(gv, wv)):
                bad.append("values")
            if bad:
                problems.append(f"{name} record {i}: {', '.join(bad)} differ from the reference")
                if len(problems) >= limit:
                    return problems
    return problems


def _size(value) -> str:
    return f"{len(value)} records" if isinstance(value, list) else repr(value)


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, workload + ".json.gz")


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, reduced: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    # mtime=0 keeps the file byte-stable across regenerations.
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(reduced, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def fingerprint(outdir: str) -> tuple[str, int]:
    """sha256 over every output file by name, and their total size in bytes.

    Equal digests mean byte-identical outputs.
    """
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode("utf-8") + b"\0" + data + b"\0")
        total += len(data)
    return h.hexdigest(), total
