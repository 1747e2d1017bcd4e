#!/usr/bin/env python3
"""Layering gate for the control plane, the trace and matchmaking.

Every simulated control-plane exchange must go through net::ControlBus —
no layer above src/net may touch sim::Network links directly or hand-roll
channel-latency delivery schedules. This script greps the source tree for
the patterns the bus refactor eliminated and fails readably if any creep
back in.

One trace recorder: obs::JobTracer is the run's only trace. The deleted
string-kind Logging & Bookkeeping log (the JobTrace class, Grid::trace_log,
broker/job_trace.hpp) must not reappear anywhere under src/, tests/, bench/
or examples/, comments included.

One matchmaking path: the product matches jobs only through the compiled
broker::Matchmaker. The interpreted ClassAd matchmaker is a test and bench
oracle (tests/oracle/legacy_matchmaker.*): the switch that once chose
between them (use_fast_path) must not reappear under src/, tests/, bench/
or examples/, and src/broker/ and src/infosys/ must neither interpret
machine ClassAds (symmetric_match, to_classad) nor reach for the oracle.

One index query: the broker discovers sites only through
InformationSystem::query_index_matching. The unpruned whole-index query it
replaced (query_index, with its IndexCallback) had no product caller left;
it must not reappear under src/, comments included. Oracles that need the
full index read published_record() themselves.

One chunk pool: every console's flush buffers draw from the process-wide
ChunkPool::shared() unless a caller names its own pool. No product code
under src/ other than src/stream/chunk.{hpp,cpp} may construct or own a
ChunkPool (a ChunkPool member or variable, ChunkPool{...}, new ChunkPool, or
a smart pointer / optional holding one); comments are not scanned. Tests
and benches may build private pools.

Allowed layers:
  * src/net   — the bus itself (the one place link latency is applied)
  * src/sim   — owns Network/Link; naturally calls its own API
  * src/stream — the data plane: streaming deliberately models transfers
    on raw links (spool/retry semantics the control bus does not carry)

Usage:
    check_layering.py [repo_root]

Exit status: 0 when the layering holds, 1 when a violation is found,
2 when the tree cannot be scanned.
"""

import pathlib
import re
import sys

# Directories (relative to src/) that may touch sim::Network directly.
ALLOWED_LINK_LAYERS = ("net", "sim", "stream")

# Raw link access: any ".link(" call on a network object. The control bus
# is the only component above src/sim that may resolve links.
RAW_LINK = re.compile(r"\bnetwork_?(\(\))?\s*\.\s*link\s*\(")

# Raw partition checks: consulting a link's failure schedule by hand
# instead of SendOptions::drop_when_down / ControlBus::probe.
RAW_IS_UP = re.compile(r"\.\s*is_up\s*\(")

# Hand-rolled delivery delays: scheduling a callback after a channel
# latency is exactly what ControlBus::send() centralizes.
MANUAL_DELAY = re.compile(r"schedule\s*\([^;]*channel_latency")

# The second trace recorder. Word boundaries let JobTracer and JobTraceEvent
# through.
SECOND_TRACE = re.compile(r"\bJobTrace\b|\btrace_log\b|job_trace\.hpp")
TRACE_SCAN_DIRS = ("src", "tests", "bench", "examples")

# The second matchmaking path: its switch anywhere, and ClassAd
# interpretation or the oracle inside the product's matchmaking layers.
MATCH_SWITCH = re.compile(r"\buse_fast_path\b")
ORACLE_IN_PRODUCT = re.compile(
    r"\bsymmetric_match\b|\bto_classad\b|legacy_matchmaker")
ONE_MATCH_DIRS = ("src/broker", "src/infosys")

# The second index query: the unpruned query_index and its callback type.
# query_index_matching( does not match (the "(" must follow query_index).
SECOND_INDEX_QUERY = re.compile(r"\bquery_index\s*\(|\bIndexCallback\b")
ONE_INDEX_QUERY_DIRS = ("src",)

# A second chunk pool: a ChunkPool object declared (member or variable),
# braced-constructed, new'ed or held by a smart pointer / optional. The
# definition and the shared() instance live in the exempt files.
POOL_OWNER = re.compile(
    r"\bChunkPool\s+\w+\s*[;{(=]|\bChunkPool\s*\{|\bnew\s+(\w+::)*ChunkPool\b"
    r"|\b(make_unique|make_shared|unique_ptr|shared_ptr|optional)\s*<\s*"
    r"(\w+::)*ChunkPool\s*>")
POOL_HOME = ("src/stream/chunk.hpp", "src/stream/chunk.cpp")


def allowed(rel: pathlib.PurePosixPath) -> bool:
    return len(rel.parts) >= 2 and rel.parts[1] in ALLOWED_LINK_LAYERS


def scan(root: pathlib.Path) -> list[str]:
    violations = []
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        sys.exit(2)
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
        if allowed(rel):
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            stripped = line.split("//")[0]
            for pattern, why in (
                (RAW_LINK, "raw Network::link() access (route via ControlBus)"),
                (RAW_IS_UP, "raw is_up() check (use drop_when_down or probe())"),
                (MANUAL_DELAY, "hand-rolled channel-latency schedule "
                               "(use ControlBus::send options)"),
            ):
                if pattern.search(stripped):
                    violations.append(f"{rel}:{lineno}: {why}\n    {line.strip()}")
    return violations


def grep_tree(root: pathlib.Path, tops, pattern: re.Pattern,
              why: str) -> list[str]:
    """Every line under root/<top> for each top that matches `pattern`,
    comments included."""
    violations = []
    for top in tops:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            rel = path.relative_to(root).as_posix()
            for lineno, line in enumerate(text.splitlines(), start=1):
                if pattern.search(line):
                    violations.append(f"{rel}:{lineno}: {why}\n    {line.strip()}")
    return violations


def scan_second_trace(root: pathlib.Path) -> list[str]:
    return grep_tree(root, TRACE_SCAN_DIRS, SECOND_TRACE,
                     "second trace recorder (record into obs::JobTracer)")


def scan_second_match_path(root: pathlib.Path) -> list[str]:
    return grep_tree(
        root, TRACE_SCAN_DIRS, MATCH_SWITCH,
        "matchmaking path switch (the product has one path)") + grep_tree(
        root, ONE_MATCH_DIRS, ORACLE_IN_PRODUCT,
        "ClassAd matchmaking in the product (it belongs to tests/oracle)")


def scan_second_index_query(root: pathlib.Path) -> list[str]:
    return grep_tree(root, ONE_INDEX_QUERY_DIRS, SECOND_INDEX_QUERY,
                     "unpruned index query (use query_index_matching)")


def scan_second_pool(root: pathlib.Path) -> list[str]:
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel in POOL_HOME:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if POOL_OWNER.search(line.split("//")[0]):
                violations.append(
                    f"{rel}:{lineno}: a second ChunkPool (draw from "
                    f"ChunkPool::shared() or a caller's pool)\n    {line.strip()}")
    return violations


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    root = root.resolve()
    failed = False
    violations = scan(root)
    if violations:
        failed = True
        print("[FAIL] control-plane layering violations:")
        for v in violations:
            print("  " + v)
        print(
            f"\n{len(violations)} violation(s). All broker/agent/site "
            "traffic must flow through net::ControlBus (docs/protocol.md)."
        )
    else:
        print("[ok]   no raw network access outside src/net (data plane exempt)")
    violations = scan_second_trace(root)
    if violations:
        failed = True
        print("[FAIL] one trace recorder:")
        for v in violations:
            print("  " + v)
        print(
            f"\n{len(violations)} violation(s). obs::JobTracer is the only "
            "trace (docs/observability.md)."
        )
    else:
        print("[ok]   one trace recorder: obs::JobTracer")
    violations = scan_second_match_path(root)
    if violations:
        failed = True
        print("[FAIL] one matchmaking path:")
        for v in violations:
            print("  " + v)
        print(
            f"\n{len(violations)} violation(s). broker::Matchmaker is the only "
            "matchmaking path; the ClassAd interpreter is a test oracle "
            "(docs/performance.md)."
        )
    else:
        print("[ok]   one matchmaking path: broker::Matchmaker")
    violations = scan_second_index_query(root)
    if violations:
        failed = True
        print("[FAIL] one index query:")
        for v in violations:
            print("  " + v)
        print(
            f"\n{len(violations)} violation(s). Discovery queries the index "
            "through query_index_matching only (docs/performance.md)."
        )
    else:
        print("[ok]   one index query: query_index_matching")
    violations = scan_second_pool(root)
    if violations:
        failed = True
        print("[FAIL] one chunk pool:")
        for v in violations:
            print("  " + v)
        print(
            f"\n{len(violations)} violation(s). Consoles share "
            "ChunkPool::shared() (docs/performance.md)."
        )
    else:
        print("[ok]   one chunk pool: ChunkPool::shared()")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
