"""The benchmark's workloads and the correctness gate on their reports.

Each workload is one `splitlaw` command line at a fixed bound. A run of
the command is correct when it exits with 0 and its report hashes to the
digest pinned here. The digests were taken at the default seed and do not
depend on the seed: `verify` and `density` payloads contain no seeded
data, and for `frobenius` only the seed-invariant columns are hashed (the
root order, and with it the matrices and permutations, follows the seeded
choice of extension modulus).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 271828

# frobenius columns that do not depend on the seed
FROBENIUS_KEYS = (
    "p",
    "splitting_degree",
    "order",
    "permutation_order",
    "is_identity",
    "splits_completely",
)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # subcommand and polynomial
    bound: int
    options: tuple[str, ...]  # further flags of the timed command
    setup_bound: int  # trivial bound: the same command with (almost) no sweep
    digest: str  # pinned digest of the report at `bound`
    setup_digest: str  # pinned digest of the report at `setup_bound`

    def command(self, seed: int, report: str, *, bound=None, serial=False) -> list[str]:
        """Arguments after `python -m splitlaw`; `serial` drops `--workers`."""
        options = self.options
        if serial and "--workers" in options:
            i = options.index("--workers")
            options = options[:i] + options[i + 2 :]
        b = self.bound if bound is None else bound
        return [*self.argv, "--bound", str(b), *options, "--seed", str(seed), "-o", report]

    @property
    def parallel(self) -> bool:
        return "--workers" in self.options


# why each workload was chosen is recorded with it in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-cubic",
            argv=("verify", "x^3-2"),
            bound=30000,
            options=(),
            setup_bound=2,
            digest="95aad42e0770c72bea38940b83192c66bfc42d47050474aef29fac69a8ac2f2a",
            setup_digest="77ef28148ba52bce097a5a9766d6b6c7fcec6112f82b299a57112ec18ac9e727",
        ),
        Workload(
            name="verify-septic-w2",
            argv=("verify", "3,1,-4,1,5,-9,1,1"),
            bound=5000,
            options=("--workers", "2"),
            setup_bound=2,
            digest="ba6bf331fb2060aa9c13cee4f8c984b239edd304543a7f311a033c705740587b",
            setup_digest="75a44af826ff278e551cd386da2cffd612336225988ea8cb5af5a2f25957f658",
        ),
        Workload(
            name="frobenius-quintic",
            argv=("frobenius", "x^5-x-1"),
            bound=100,
            options=(),
            setup_bound=2,
            digest="0db92d8ccbd90cc97fc71ee32385fabad17f1153fc473a8d7a9d69bb4ba3c3f8",
            setup_digest="4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        ),
        Workload(
            name="density-cubic",
            argv=("density", "x^3-2"),
            bound=150000,
            options=("--group-order", "6"),
            setup_bound=5,
            digest="41256e7ae30efaffc8f02f595917f9265620b3d63069c2acaa76f6a5a4129bc5",
            setup_digest="3bda25ced699eb6317cfe8419ee4edb8579a6ee7bcec5e22f4ec6e1e696298e9",
        ),
    )
}


def report_digest(command: str, report: dict) -> str:
    """sha256 of the seed-invariant part of a report."""
    payload = report["payload"]
    if command == "frobenius":
        payload = [{k: r[k] for k in FROBENIUS_KEYS} for r in payload["records"]]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def good_count(command: str, report: dict) -> int:
    """Number of good primes the report swept."""
    payload = report["payload"]
    if command == "verify":
        return payload["good_count"]
    if command == "density":
        return payload["records"][0]["good_count"]
    return len(payload["records"])


def check_report(w: Workload, status: int, data: bytes | None, *, setup=False) -> list[str]:
    """Problems with one run's exit status and report bytes; empty when correct."""
    if status != 0:
        return [f"exit status {status}"]
    if data is None:
        return ["no report written"]
    try:
        report = json.loads(data)
        command = report["command"]
        digest = report_digest(command, report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    expected = w.setup_digest if setup else w.digest
    if digest != expected:
        problems.append(f"report digest {digest} != pinned {expected}")
    if command == "frobenius":
        bad = [
            r["p"]
            for r in report["payload"]["records"]
            if r["is_identity"] != r["splits_completely"]
        ]
        if bad:
            problems.append(f"is_identity != splits_completely at p in {bad}")
    return problems
