#!/usr/bin/env python3
"""Self-tests for the lint suite (stdlib only, run by ctest + CI).

A lint that silently stops firing is worse than no lint: the tree
drifts while CI stays green. This suite runs all five lint scripts
(check_sources, check_determinism, check_concurrency, check_hotgraph
with its closure analysis and state audit, check_trace) against
known-good and known-bad fixture trees under tools/lint/tests/fixtures/
and asserts both directions:

  - the clean tree produces zero findings (false-positive regression),
  - every deliberately planted violation in the dirty tree is found
    (false-negative regression), rule by rule,
  - the allowlist-existence guard fires for stale allowlist entries,
  - the CLI entry points return the right exit codes.

Run directly (`python3 run_lint_tests.py`) or via ctest
(`ctest -R lint_selftests`).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINT_DIR = HERE.parent
FIXTURES = HERE / "fixtures"
CLEAN = FIXTURES / "clean"
DIRTY = FIXTURES / "dirty"
TRACES = FIXTURES / "traces"

sys.path.insert(0, str(LINT_DIR))
import check_concurrency  # noqa: E402
import check_determinism  # noqa: E402
import check_sources  # noqa: E402
import check_trace  # noqa: E402
from hotgraph import textual as hg_textual  # noqa: E402
from hotgraph.analysis import Analysis  # noqa: E402
from hotgraph.model import (AllowEntry, IncludeException,  # noqa: E402
                            RULE_STALE_ALLOW, RULE_UNANNOTATED,
                            RULE_VIRTUAL)
from hotgraph.statespace import (StateAudit,  # noqa: E402
                                 RULE_HOST_TAINT)

HOTGRAPH = FIXTURES / "hotgraph"
STATESPACE = FIXTURES / "statespace"

NO_ALLOW: set[str] = set()


def analyze(root: Path, allowlist=(), include_exceptions=()):
    """A completed closure Analysis over the tree at @p root, with the
    repo allowlists replaced by the given ones."""
    analysis = Analysis(hg_textual.index_tree(root),
                        allowlist=list(allowlist),
                        include_exceptions=list(include_exceptions))
    analysis.run()
    return analysis


def hotgraph_findings(root: Path, allowlist=(), include_exceptions=()):
    """Rendered closure findings for the tree at @p root."""
    return [f.render()
            for f in analyze(root, allowlist, include_exceptions).findings]


def statespace_audit(tree: str, allowlist=(), certificate=None,
                     cert_classes=None):
    """A completed StateAudit over fixtures/statespace/<tree>, with
    the repo allowlist and certificate replaced by the given ones."""
    root = STATESPACE / tree
    audit = StateAudit(analyze(root), root, allowlist=list(allowlist),
                       certificate=certificate, cert_classes=cert_classes)
    audit.run()
    return audit


def statespace_findings(tree: str, allowlist=()):
    return [f.render()
            for f in statespace_audit(tree, allowlist).findings]


class LintAssertions(unittest.TestCase):
    def assertFinding(self, findings, where, needle, count=None):
        """Asserts a finding for file @p where whose text has @p needle."""
        hits = [f for f in findings
                if f.startswith(where) and needle in f]
        if count is None:
            self.assertTrue(
                hits, f"no finding for {where} matching {needle!r} in:\n" +
                "\n".join(findings))
        else:
            self.assertEqual(
                len(hits), count,
                f"expected {count} finding(s) for {where} matching "
                f"{needle!r}, got {len(hits)} in:\n" + "\n".join(findings))


class CleanTreeIsClean(LintAssertions):
    """False-positive regression: zero findings on the clean tree."""

    def test_check_sources(self):
        self.assertEqual(check_sources.collect_findings(CLEAN), [])

    def test_check_determinism(self):
        self.assertEqual(
            check_determinism.collect_findings(
                CLEAN, rng_allowlist=NO_ALLOW,
                wallclock_allowlist=NO_ALLOW, getenv_allowlist=NO_ALLOW),
            [])

    def test_check_concurrency(self):
        self.assertEqual(
            check_concurrency.collect_findings(
                CLEAN, primitive_allowlist=NO_ALLOW,
                static_allowlist=NO_ALLOW,
                thread_local_allowlist=NO_ALLOW),
            [])

    def test_check_hotgraph(self):
        # good_hotpath.cc keeps banned-looking tokens outside the hot
        # spans (cold reserve/push_back, string-literal mentions); none
        # may fire.
        self.assertEqual(hotgraph_findings(CLEAN), [])


class DirtyTreeIsCaught(LintAssertions):
    """False-negative regression: every planted violation is found."""

    @classmethod
    def setUpClass(cls):
        cls.sources = check_sources.collect_findings(DIRTY)
        cls.determinism = check_determinism.collect_findings(
            DIRTY, rng_allowlist=NO_ALLOW, wallclock_allowlist=NO_ALLOW,
            getenv_allowlist=NO_ALLOW)
        cls.concurrency = check_concurrency.collect_findings(
            DIRTY, primitive_allowlist=NO_ALLOW,
            static_allowlist=NO_ALLOW, thread_local_allowlist=NO_ALLOW)
        cls.hotgraph = hotgraph_findings(DIRTY)

    # --- check_sources rules -----------------------------------------
    def test_raw_new(self):
        self.assertFinding(self.sources, "src/util/bad_content.cc",
                           "raw `new` is banned", count=1)

    def test_c_cast(self):
        self.assertFinding(self.sources, "src/util/bad_content.cc",
                           "C-style narrowing cast", count=1)

    def test_include_guard(self):
        self.assertFinding(self.sources, "src/util/bad_guard.h",
                           "expected FDIP_UTIL_BAD_GUARD_H_", count=1)

    def test_self_contained(self):
        self.assertFinding(self.sources, "src/util/bad_header.h",
                           "not self-contained")

    # --- check_determinism rules -------------------------------------
    def test_det_rand(self):
        self.assertFinding(self.determinism, "src/util/bad_content.cc",
                           "rand()/srand() is banned", count=2)

    def test_random_device(self):
        self.assertFinding(self.determinism, "src/util/bad_content.cc",
                           "random_device", count=1)

    def test_wallclock_time(self):
        self.assertFinding(self.determinism, "src/util/bad_content.cc",
                           "time() is banned", count=1)

    def test_wallclock_clock(self):
        self.assertFinding(self.determinism, "src/util/bad_content.cc",
                           "clock() is banned", count=1)

    def test_chrono_clock(self):
        self.assertFinding(self.determinism, "src/util/bad_content.cc",
                           "chrono host clocks", count=1)

    def test_getenv(self):
        self.assertFinding(self.determinism, "src/util/bad_content.cc",
                           "getenv() is banned", count=1)

    def test_code_after_digit_separator(self):
        # The separator in 0x46444950'54524331ULL is no char-literal
        # quote: the code after it is still linted.
        self.assertFinding(self.determinism,
                           "src/util/digit_separator.cc",
                           "rand()/srand() is banned", count=1)

    def test_code_between_prefixed_char_literals(self):
        # u8'x' is a char literal, not a digit separator after "u8".
        self.assertFinding(self.determinism,
                           "src/util/digit_separator.cc",
                           "time() is banned", count=1)

    def test_profiler_clock_site_is_caught_when_not_allowlisted(self):
        # The tick-profiler pattern (one chrono read in an
        # observability TU) is still a violation unless the file is
        # explicitly wallclock-allowlisted.
        self.assertFinding(self.determinism,
                           "src/util/profiler_clock.cc",
                           "chrono host clocks", count=1)

    # --- check_concurrency rules -------------------------------------
    def test_raw_mutex(self):
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "raw std mutexes are banned")

    def test_raw_lock_guard(self):
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "raw std lock guards are banned", count=1)

    def test_raw_atomic(self):
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "raw std::atomic is banned", count=1)

    def test_condition_variable(self):
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "condition_variable is banned", count=1)

    def test_pthreads(self):
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "pthreads are banned", count=1)

    def test_banned_includes(self):
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "concurrency headers are banned", count=2)

    def test_static_state(self):
        # s_hidden_count (anonymous namespace) + calls (function-local).
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "mutable static state", count=2)

    def test_namespace_state(self):
        # g_raw_mutex, g_raw_atomic, g_call_count, g_shared_pool.
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "mutable namespace-scope state", count=4)

    def test_thread_local(self):
        self.assertFinding(self.concurrency, "src/util/bad_sync.cc",
                           "thread_local is ambient", count=1)

    # --- hot-path bans and annotations (check_hotgraph) --------------
    def test_hot_raw_new(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "heap allocation (`new`)", count=1)

    def test_hot_make_unique(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "make_unique/make_shared", count=1)

    def test_hot_growing_container(self):
        # One push_back in a hot function, one inside a hot region.
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "growing std-container", count=2)

    def test_hot_string(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "std::string construction", count=1)

    def test_hot_function_callable(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "std::function is banned", count=1)

    def test_hot_throw(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "`throw` is banned", count=1)

    def test_hot_printf(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "iostream/printf formatting", count=1)

    def test_hot_lock(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "lock acquisition", count=1)

    def test_hot_annotated_declaration(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "annotates a declaration", count=1)

    def test_hot_region_end_without_begin(self):
        self.assertFinding(self.hotgraph, "src/util/bad_hotpath.cc",
                           "without a matching BEGIN", count=1)

    def test_hot_region_name_mismatch(self):
        self.assertFinding(
            self.hotgraph, "src/util/bad_hotpath.cc",
            "FDIP_HOT_REGION_END(beta) closes "
            "FDIP_HOT_REGION_BEGIN(alpha)", count=1)


class AllowlistGuards(LintAssertions):
    """A stale allowlist entry is itself a finding."""

    def test_determinism_stale_entry(self):
        findings = check_determinism.collect_findings(
            CLEAN, rng_allowlist={"src/util/missing_rng.h"},
            wallclock_allowlist=NO_ALLOW, getenv_allowlist=NO_ALLOW)
        self.assertFinding(findings, "src/util/missing_rng.h",
                           "allowlisted file does not exist", count=1)

    def test_concurrency_stale_entry(self):
        findings = check_concurrency.collect_findings(
            CLEAN, primitive_allowlist={"src/util/missing_sync.h"},
            static_allowlist=NO_ALLOW, thread_local_allowlist=NO_ALLOW)
        self.assertFinding(findings, "src/util/missing_sync.h",
                           "allowlisted file does not exist", count=1)

    def test_allowlisted_violation_is_silent(self):
        findings = check_concurrency.collect_findings(
            DIRTY, primitive_allowlist={"src/util/bad_sync.cc"},
            static_allowlist={"src/util/bad_sync.cc"},
            thread_local_allowlist={"src/util/bad_sync.cc"})
        self.assertEqual(
            [f for f in findings if f.startswith("src/util/bad_sync.cc")],
            [])

    def test_wallclock_allowlisted_clock_site_is_silent(self):
        # Allowlisting the profiler-pattern file silences exactly its
        # clock finding (the real entry is src/obs/tick_profiler.cc).
        findings = check_determinism.collect_findings(
            DIRTY, rng_allowlist=NO_ALLOW,
            wallclock_allowlist={"src/util/profiler_clock.cc"},
            getenv_allowlist=NO_ALLOW)
        self.assertEqual(
            [f for f in findings
             if f.startswith("src/util/profiler_clock.cc")],
            [])

    def test_repo_allowlist_covers_tick_profiler(self):
        # The production allowlist must keep the profiler's single
        # clock site; dropping it would fail the repo lint run.
        self.assertIn("src/obs/tick_profiler.cc",
                      check_determinism.WALLCLOCK_ALLOWLIST)


class HotgraphClosure(LintAssertions):
    """check_hotgraph's closure walk: each seeded violation class in
    fixtures/hotgraph/dirty-* is caught, and the clean tree (annotated
    closure, sealed dispatch, region use) stays silent."""

    def test_clean_tree_is_clean(self):
        self.assertEqual(hotgraph_findings(HOTGRAPH / "clean"), [])

    def test_transitive_alloc_unannotated_helper(self):
        findings = hotgraph_findings(HOTGRAPH / "dirty-transitive-alloc")
        self.assertFinding(findings, "src/util/table.h",
                           "fdip::Table::append is reachable", count=1)

    def test_transitive_alloc_banned_ops_in_callee(self):
        findings = hotgraph_findings(HOTGRAPH / "dirty-transitive-alloc")
        self.assertFinding(findings, "src/util/table.h",
                           "growing std-container", count=1)
        self.assertFinding(findings, "src/util/table.h",
                           "heap allocation (`new`)", count=1)

    def test_transitive_alloc_reports_discovery_chain(self):
        findings = hotgraph_findings(HOTGRAPH / "dirty-transitive-alloc")
        self.assertFinding(
            findings, "src/util/table.h",
            "via fdip::Table::record -> fdip::Table::append")

    def test_hidden_lock_two_calls_deep(self):
        findings = hotgraph_findings(HOTGRAPH / "dirty-hidden-lock")
        self.assertFinding(findings, "src/util/gate.h",
                           "fdip::Gate::guard is reachable", count=1)
        # std::lock_guard and the std::mutex template argument both
        # match the lock rule on the same line.
        self.assertFinding(findings, "src/util/gate.h",
                           "lock acquisition", count=2)

    def test_nonfinal_virtual_dispatch(self):
        findings = hotgraph_findings(HOTGRAPH / "dirty-nonfinal-virtual")
        self.assertFinding(findings, "src/util/port.h",
                           "fdip::Port::push may dispatch virtually",
                           count=1)
        # The annotated override itself is fine: exactly one finding.
        self.assertEqual(len(findings), 1, "\n".join(findings))

    def test_layering_upward_include(self):
        findings = hotgraph_findings(HOTGRAPH / "dirty-layering")
        self.assertFinding(findings, "src/obs/probe.h",
                           "upward include", count=1)

    def test_layering_same_rank_include(self):
        findings = hotgraph_findings(HOTGRAPH / "dirty-layering")
        self.assertFinding(findings, "src/trace/peek.h",
                           "same-rank cross-module include", count=1)

    def test_stale_allow_entry_is_a_finding(self):
        findings = hotgraph_findings(
            HOTGRAPH / "dirty-stale-allowlist",
            allowlist=[AllowEntry(RULE_UNANNOTATED, "src/util/calm.h",
                                  "fdip::gone", "obsolete")])
        self.assertFinding(findings, "src/util/calm.h",
                           "suppressed nothing", count=1)

    def test_stale_include_exception_is_a_finding(self):
        findings = hotgraph_findings(
            HOTGRAPH / "dirty-stale-allowlist",
            include_exceptions=[IncludeException(
                "src/util/calm.h", "core", "obsolete")])
        self.assertFinding(findings, "src/util/calm.h",
                           "matched no include edge", count=1)

    def test_allowlisted_virtual_site_is_silent(self):
        findings = hotgraph_findings(
            HOTGRAPH / "dirty-nonfinal-virtual",
            allowlist=[AllowEntry(RULE_VIRTUAL, "src/util/port.h",
                                  "fdip::Port::push", "fixture")])
        self.assertEqual(
            [f for f in findings if RULE_VIRTUAL in f], [])
        # ...and a *used* entry must not trip the staleness guard.
        self.assertEqual(
            [f for f in findings if RULE_STALE_ALLOW in f], [])

    def test_annotation_in_a_skipped_if_arm_is_not_a_finding(self):
        # libclang indexes only the #if arm the build compiles. Drop
        # the other traceOn arm from the builtin index, as libclang
        # would, and the annotation rule must still find nothing.
        prog = hg_textual.index_tree(CLEAN)
        fi = prog.files["src/util/good_hotpath.cc"]
        arms = [f for f in fi.functions if f.name == "traceOn"]
        self.assertEqual(len(arms), 2)      # the builtin reads both
        fi.functions.remove(arms[1])
        analysis = Analysis(prog, allowlist=[], include_exceptions=[])
        self.assertEqual([f.render() for f in analysis.run()], [])

    def test_clang_byte_offsets_map_to_characters(self):
        # libclang reports UTF-8 byte offsets and the clang frontend
        # slices the decoded text: 2-, 3- and 4-byte characters before
        # a body must not shift its span.
        text = "// caf\u00e9 \u2264 \U0001d11e\nint f() { return 0; }\n"
        to_char = hg_textual.char_offsets(text)
        data = text.encode()
        self.assertEqual(len(data) - len(text), 1 + 2 + 3)
        for i in range(len(text) + 1):
            self.assertEqual(to_char(len(text[:i].encode())), i)
        body = slice(to_char(data.index(b"{")), to_char(data.index(b"}")))
        self.assertEqual(text[body], "{ return 0; ")
        ascii_text = "int g() { return 1; }"
        to_char = hg_textual.char_offsets(ascii_text)
        self.assertEqual([to_char(i) for i in range(len(ascii_text) + 1)],
                         list(range(len(ascii_text) + 1)))

    def test_json_report_schema(self):
        doc = analyze(HOTGRAPH / "dirty-transitive-alloc").to_json()
        self.assertEqual(doc["schema"], "hot-callgraph-v1")
        self.assertEqual(doc["backend"], "builtin")
        self.assertEqual(doc["findings"], len(doc["findingList"]))
        self.assertGreater(doc["hotRoots"], 0)
        self.assertGreaterEqual(doc["reachable"], doc["hotRoots"])


class StateSpaceAudit(LintAssertions):
    """The state audit's three rule families over the statespace
    fixture trees, both directions (clean tree silent, every planted
    violation found), plus allowlist staleness, the certificate
    cross-check and the JSON report."""

    def test_clean_tree_is_clean(self):
        self.assertEqual(statespace_findings("clean"), [])

    def test_audit_needs_a_walked_closure(self):
        # The host-taint rule reads the closure walk; an audit over an
        # analysis that never ran would pass on an empty closure.
        root = STATESPACE / "clean"
        audit = StateAudit(Analysis(hg_textual.index_tree(root)), root,
                           allowlist=[])
        with self.assertRaises(RuntimeError):
            audit.run()

    def test_ghost_claim_of_undeclared_field(self):
        findings = statespace_findings("dirty-ghost-member")
        self.assertFinding(findings, "src/bpu/ghost.h",
                           "claims schema field 'lru'", count=1)

    def test_unclassified_member(self):
        findings = statespace_findings("dirty-ghost-member")
        self.assertFinding(findings, "src/bpu/ghost.h",
                           "fdip::Ghosty::stray_ carries no "
                           "FDIP_STATE_*", count=1)

    def test_arch_state_in_schemaless_class(self):
        findings = statespace_findings("dirty-ghost-member")
        self.assertFinding(findings, "src/bpu/ghost.h",
                           "fdip::Naked declares no StorageSchema",
                           count=1)
        # Exactly the three planted ghost-family violations.
        self.assertEqual(len(findings), 3, "\n".join(findings))

    def test_schema_orphan(self):
        findings = statespace_findings("dirty-schema-orphan")
        self.assertFinding(findings, "src/bpu/orphan.h",
                           "schema field 'lru' of fdip::Orphan",
                           count=1)
        self.assertEqual(len(findings), 1, "\n".join(findings))

    def test_unreset_scalar(self):
        findings = statespace_findings("dirty-unreset")
        self.assertFinding(findings, "src/bpu/unreset.h",
                           "fdip::Unreset::pos_ is FDIP_STATE_MICRO",
                           count=1)
        # ok_ (covered by reset()) must stay silent.
        self.assertEqual(len(findings), 1, "\n".join(findings))

    def test_host_taint_on_hot_closure(self):
        findings = statespace_findings("dirty-host-taint")
        self.assertFinding(findings, "src/core/hot.h",
                           "touches FDIP_STATE_HOST member "
                           "fdip::Stamper::lastNs_", count=1)
        self.assertEqual(len(findings), 1, "\n".join(findings))

    def test_host_taint_allowlisted_is_silent(self):
        findings = statespace_findings(
            "dirty-host-taint",
            allowlist=[AllowEntry(RULE_HOST_TAINT, "src/core/hot.h",
                                  "fdip::Stamper::lastNs_",
                                  "fixture")])
        # The taint is suppressed, and the *used* entry must not trip
        # the staleness guard.
        self.assertEqual(findings, [])

    def test_stale_allow_entry_is_a_finding(self):
        findings = statespace_findings(
            "dirty-stale-allowlist",
            allowlist=[AllowEntry(RULE_HOST_TAINT, "src/bpu/calm.h",
                                  "fdip::Calm::gone_", "obsolete")])
        self.assertFinding(findings, "src/bpu/calm.h",
                           "suppressed nothing", count=1)

    def test_every_mapped_class_must_cross_check(self):
        cert = {"configs": [{"name": "paper-baseline", "structures": [
            {"name": "TINY", "bits": 500, "fields": [
                {"field": "valid"}, {"field": "tag"},
                {"field": "fold4"}]}]}]}
        audit = statespace_audit(
            "clean", certificate=cert,
            cert_classes={"fdip::Tiny": "TINY", "fdip::Gone": "GONE"})
        findings = [f.render() for f in audit.findings]
        self.assertFinding(findings, "tools/lint/hotgraph/statespace.py",
                           "fdip::Gone maps to certificate structure "
                           "'GONE'", count=1)
        self.assertEqual(len(findings), 1, "\n".join(findings))
        self.assertEqual(audit.classes["fdip::Tiny"].certificate_bits,
                         500)

    def test_json_report_schema(self):
        audit = statespace_audit("clean")
        doc = audit.to_json()
        self.assertEqual(doc["schema"], "state-audit-v1")
        self.assertEqual(doc["backend"], "builtin")
        self.assertEqual(doc["findings"], len(doc["findingList"]))
        self.assertEqual(doc["auditedClasses"], 2)
        kinds = doc["membersByKind"]
        self.assertEqual(doc["members"],
                         sum(kinds[k] for k in kinds))
        self.assertEqual(kinds["unclassified"], 0)

    def test_census_shape(self):
        census = statespace_audit("clean").census()
        tiny = census["fdip::Tiny"]
        self.assertEqual(
            [f["field"] for f in tiny["schema"]],
            ["valid", "tag", "fold"])
        self.assertTrue(
            [f for f in tiny["schema"] if f["dynamic"]])
        self.assertEqual(tiny["members"]["wallSeconds_"]["kind"],
                         "host")
        self.assertEqual(
            census["fdip::Outer"]["members"]["inner_"]["fields"],
            ["sub"])


class TraceChecker(LintAssertions):
    def test_good_trace(self):
        problems = check_trace.check_trace(
            str(TRACES / "good_trace.json"),
            ["sim_start", "l2_fill"], 3)
        self.assertEqual(problems, [])

    def test_good_trace_missing_required_name(self):
        problems = check_trace.check_trace(
            str(TRACES / "good_trace.json"), ["never_emitted"], 1)
        self.assertTrue(any("never_emitted" in p for p in problems))

    def test_bad_trace(self):
        problems = check_trace.check_trace(
            str(TRACES / "bad_trace.json"), [], 1)
        text = "\n".join(problems)
        self.assertIn("unexpected phase 'x'", text)
        self.assertIn("timestamp went backwards", text)
        self.assertIn("end without begin", text)
        self.assertIn("'b' event has no 'ts'", text)
        self.assertIn("missing ['ph']", text)
        self.assertEqual(len(problems), 5, text)

    def test_unparseable_trace(self):
        problems = check_trace.check_trace(
            str(TRACES / "no_such_trace.json"), [], 1)
        self.assertTrue(any("cannot parse" in p for p in problems))


class CliExitCodes(LintAssertions):
    """The scripts' CLI entry points report findings via exit status."""

    @staticmethod
    def run_script(script, *argv):
        return subprocess.run(
            [sys.executable, str(LINT_DIR / script), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE).returncode

    def test_check_sources_cli(self):
        self.assertEqual(
            self.run_script("check_sources.py", "--root", str(CLEAN)), 0)
        self.assertEqual(
            self.run_script("check_sources.py", "--root", str(DIRTY)), 1)

    def test_check_determinism_cli(self):
        # Default allowlists point at repo files absent from the
        # fixture trees, so the existence guard (correctly) fails both.
        self.assertEqual(
            self.run_script("check_determinism.py", "--root", str(DIRTY)),
            1)

    def test_check_concurrency_cli(self):
        self.assertEqual(
            self.run_script("check_concurrency.py", "--root", str(DIRTY)),
            1)

    def test_check_hotgraph_cli(self):
        # --bare replaces the repo allowlists, include exceptions and
        # certificate (whose entries name repo files, so they would all
        # be stale on a fixture tree).
        for tree, status in ((CLEAN, 0), (DIRTY, 1),
                             (HOTGRAPH / "clean", 0),
                             (HOTGRAPH / "dirty-transitive-alloc", 1),
                             (STATESPACE / "clean", 0),
                             (STATESPACE / "dirty-ghost-member", 1)):
            with self.subTest(tree=str(tree.relative_to(FIXTURES))):
                self.assertEqual(
                    self.run_script("check_hotgraph.py", "--bare",
                                    "--root", str(tree)), status)

    def test_check_hotgraph_cli_staleness_without_bare(self):
        # Without --bare the production allowlists apply; on a
        # fixture tree every entry is unused, so the staleness guard
        # itself must fail the run.
        for tree in (HOTGRAPH / "clean", STATESPACE / "clean"):
            with self.subTest(tree=str(tree.relative_to(FIXTURES))):
                self.assertEqual(
                    self.run_script("check_hotgraph.py",
                                    "--root", str(tree)), 1)

    def test_check_hotgraph_cli_unavailable_frontend(self):
        # Exit 2 distinguishes "frontend missing" from findings; only
        # meaningful where clang.cindex is actually absent.
        try:
            import clang.cindex  # noqa: F401
            self.skipTest("clang.cindex installed; frontend available")
        except ImportError:
            pass
        self.assertEqual(
            self.run_script("check_hotgraph.py", "--frontend=clang",
                            "--bare",
                            "--root", str(HOTGRAPH / "clean")), 2)

    def test_check_hotgraph_cli_census_and_json(self):
        clean = ["--bare", "--root", str(STATESPACE / "clean")]
        with tempfile.TemporaryDirectory() as td:
            golden = Path(td) / "census.json"
            report = Path(td) / "report.json"
            self.assertEqual(
                self.run_script("check_hotgraph.py", *clean,
                                "--update-census", str(golden),
                                "--json", str(report)), 0)
            # One file carries both reports, each under its schema.
            doc = json.loads(report.read_text())
            self.assertEqual(doc["hotCallgraph"]["schema"],
                             "hot-callgraph-v1")
            self.assertEqual(doc["stateAudit"]["schema"],
                             "state-audit-v1")
            # Same tree vs. its own census: clean.
            self.assertEqual(
                self.run_script("check_hotgraph.py", *clean,
                                "--census-golden", str(golden)), 0)
            # Drifted census (a member vanishes): the diff must fail.
            doc = json.loads(golden.read_text())
            del doc["fdip::Tiny"]["members"]["hits_"]
            golden.write_text(json.dumps(doc))
            self.assertEqual(
                self.run_script("check_hotgraph.py", *clean,
                                "--census-golden", str(golden)), 1)

    def test_check_trace_cli(self):
        self.assertEqual(
            self.run_script("check_trace.py",
                            str(TRACES / "good_trace.json")), 0)
        self.assertEqual(
            self.run_script("check_trace.py",
                            str(TRACES / "bad_trace.json")), 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
