"""The project-invariant checker: rules, suppressions, CLI, self-hosting."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import RULE_REGISTRY, all_rules, lint_paths, render_json, render_text
from repro.lint.runner import SYNTAX_ERROR_RULE, discover_files
from repro.lint.suppress import collect_suppressions, is_suppressed
from repro.utils.errors import ReproError

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def fixture_findings(*relpath: str, rules: list[str] | None = None):
    result = lint_paths([str(FIXTURES.joinpath(*relpath))], rule_ids=rules)
    return result


def rel_fixture_path(display: str) -> str:
    return display.split("lint_fixtures/", 1)[1]


class TestRuleFamiliesFire:
    """Each family is live: a seeded violation raises the exact rule id."""

    def test_unhashed_field_catches_reintroduced_pr4_collision(self):
        # The include_isolated bug shape: a "parameter" added as a plain
        # class attribute, invisible to token(), colliding in the cache.
        result = fixture_findings("cache", "bad_unhashed_field.py")
        rules = [f.rule for f in result.active_findings]
        assert rules == ["cache-key-unhashed-field"]
        assert "include_isolated" in result.active_findings[0].message

    def test_token_override_without_field_derivation(self):
        result = fixture_findings("cache", "bad_token_override.py")
        assert [f.rule for f in result.active_findings] == [
            "cache-key-unhashed-field"
        ]

    def test_scoring_fields_must_name_real_fields(self):
        result = fixture_findings("cache", "bad_scoring_fields.py")
        assert [f.rule for f in result.active_findings] == [
            "cache-key-scoring-fields"
        ]
        assert "bin_count" in result.active_findings[0].message

    def test_key_builders_need_version_constants(self):
        result = fixture_findings("cache", "bad_version.py")
        rules = [f.rule for f in result.active_findings]
        assert rules == ["cache-key-version", "cache-key-version"]
        messages = " ".join(f.message for f in result.active_findings)
        assert "cache_key" in messages  # missing *_VERSION reference
        assert "COMPUTED_VERSION" in messages  # non-literal constant

    def test_unsorted_set_iteration(self):
        result = fixture_findings("determinism", "core", "bad_set_iter.py")
        rules = {f.rule for f in result.active_findings}
        assert rules == {"unsorted-set-iteration"}
        # Both the dict-of-sets subscript and the set literal iteration.
        assert len(result.active_findings) == 2

    def test_nondeterministic_calls(self):
        result = fixture_findings("determinism", "core", "bad_nondet.py")
        assert {f.rule for f in result.active_findings} == {
            "nondeterministic-call"
        }
        flagged = " ".join(f.message for f in result.active_findings)
        assert "random.random" in flagged
        assert "time.time" in flagged
        assert "id()" in flagged

    def test_float_accumulation_in_collector(self):
        result = fixture_findings("determinism", "core", "bad_float_accum.py")
        assert [f.rule for f in result.active_findings] == [
            "float-accumulation",
            "float-accumulation",
        ]
        flagged = " ".join(f.message for f in result.active_findings)
        # Both the per-source and the batched feed are hot methods.
        assert "MeanDurationCollector.record" in flagged
        assert "BatchedMeanCollector.record_batch" in flagged

    def test_determinism_rules_cover_storage(self):
        # The determinism scope includes storage/: backends feed columns
        # and fingerprints into every cache key, so hash-order iteration
        # and process-local hash() are flagged there too.
        result = fixture_findings(
            "determinism", "storage", "bad_partition_order.py"
        )
        assert [f.rule for f in result.active_findings] == [
            "unsorted-set-iteration",
            "nondeterministic-call",
        ]
        assert "hash()" in result.active_findings[1].message

    def test_collector_contract(self):
        result = fixture_findings("collector", "bad_collector.py")
        assert [f.rule for f in result.active_findings] == [
            "collector-contract",
            "collector-contract",
            "collector-contract",
            "collector-contract",
        ]
        flagged = " ".join(f.message for f in result.active_findings)
        # record_batch-only collectors are held to the same contract.
        assert "BatchOnlyCollector defines record_batch()" in flagged

    def test_collector_merge_inplace(self):
        result = fixture_findings("collector", "bad_merge_returns_new.py")
        assert [f.rule for f in result.active_findings] == [
            "collector-merge-inplace"
        ]

    def test_unlocked_attribute_write(self):
        result = fixture_findings("locks", "engine", "bad_unlocked_write.py")
        assert [f.rule for f in result.active_findings] == [
            "unlocked-attribute-write"
        ]
        assert "_count" in result.active_findings[0].message

    def test_unlocked_write_in_test_double(self):
        # The lock rules cover tests/ too: a lock-owning fake backend is
        # held to the same discipline as the engine class it stands for.
        result = fixture_findings("locks", "testsuite", "bad_test_double.py")
        assert [f.rule for f in result.active_findings] == [
            "unlocked-attribute-write"
        ]
        assert "_submitted" in result.active_findings[0].message

    def test_unlocked_write_in_storage_backend(self):
        # The lock scope includes storage/: a lazily-caching handle that
        # owns a lock must write its cached columns under it.
        result = fixture_findings("locks", "storage", "bad_cached_columns.py")
        assert [f.rule for f in result.active_findings] == [
            "unlocked-attribute-write"
        ]
        assert "_columns" in result.active_findings[0].message

    def test_lock_scope_excludes_unrelated_trees(self, tmp_path):
        # The same racy class outside engine/service/tests is out of
        # scope for the lock rules.
        racy = (FIXTURES / "locks" / "testsuite" / "bad_test_double.py").read_text()
        outside = tmp_path / "notebooks" / "double.py"
        outside.parent.mkdir()
        outside.write_text(racy)
        result = lint_paths([str(outside)])
        assert "unlocked-attribute-write" not in [
            f.rule for f in result.active_findings
        ]

    def test_lock_order_cycle(self):
        result = fixture_findings("locks", "engine", "bad_lock_cycle.py")
        assert [f.rule for f in result.active_findings] == ["lock-order-cycle"]
        assert "AlphaRegistry._lock" in result.active_findings[0].message
        assert "BetaRegistry._lock" in result.active_findings[0].message

    def test_syntax_errors_are_reported_not_fatal(self):
        result = fixture_findings("syntax", "bad_syntax.py")
        assert [f.rule for f in result.active_findings] == [SYNTAX_ERROR_RULE]

    @pytest.mark.parametrize(
        "relpath",
        [
            ("cache", "clean.py"),
            ("determinism", "core", "clean.py"),
            ("determinism", "storage", "clean.py"),
            ("collector", "clean.py"),
            ("locks", "engine", "clean.py"),
            ("locks", "storage", "clean_column_cache.py"),
            ("locks", "testsuite", "clean_test_double.py"),
        ],
    )
    def test_clean_fixtures_stay_clean(self, relpath):
        result = fixture_findings(*relpath)
        assert result.active_findings == []
        assert result.suppressed_count == 0


class TestGoldenCorpus:
    def test_fixture_corpus_matches_golden_json(self):
        golden = json.loads((FIXTURES / "expected_findings.json").read_text())
        result = lint_paths([str(FIXTURES)])

        def norm(suppressed: bool):
            records = []
            for finding in result.findings:
                if finding.suppressed != suppressed:
                    continue
                record = finding.to_dict()
                record["path"] = rel_fixture_path(str(record["path"]))
                record.pop("hint", None)
                record.pop("suppressed", None)
                records.append(record)
            return records

        assert norm(False) == golden["findings"]
        assert norm(True) == golden["suppressed"]
        assert len(result.active_findings) == golden["counts"]["findings"]
        assert result.suppressed_count == golden["counts"]["suppressed"]

    def test_golden_ignores_the_golden_file_itself(self):
        # Only .py files are linted; the golden json rides along inertly.
        files = discover_files([str(FIXTURES)])
        assert all(path.endswith(".py") for path in files)

    def test_discovery_skips_fixture_corpora(self, tmp_path):
        # Walking a tree never descends into lint_fixtures/ (the files
        # there violate rules on purpose) — so `repro lint tests` stays
        # clean — but naming the corpus explicitly still lints it.
        corpus = tmp_path / "tests" / "lint_fixtures"
        corpus.mkdir(parents=True)
        (corpus / "seeded.py").write_text("x = 1\n")
        (tmp_path / "tests" / "test_real.py").write_text("y = 2\n")
        walked = discover_files([str(tmp_path)])
        assert [os.path.basename(p) for p in walked] == ["test_real.py"]
        explicit = discover_files([str(corpus)])
        assert [os.path.basename(p) for p in explicit] == ["seeded.py"]


class TestSuppressions:
    def test_comment_parsing(self):
        source = (
            "x = 1  # repro: ignore[rule-a]\n"
            "y = 2  # repro: ignore[rule-b, rule-c] -- reason\n"
            "z = 3  # unrelated comment\n"
        )
        suppressions = collect_suppressions(source)
        assert suppressions == {1: {"rule-a"}, 2: {"rule-b", "rule-c"}}
        assert is_suppressed(suppressions, 1, "rule-a")
        assert not is_suppressed(suppressions, 1, "rule-b")
        assert not is_suppressed(suppressions, 3, "rule-a")

    def test_wildcard_suppression(self):
        suppressions = collect_suppressions("x = 1  # repro: ignore[*]\n")
        assert is_suppressed(suppressions, 1, "anything-at-all")

    def test_marker_inside_string_literal_is_not_a_suppression(self):
        source = 's = "# repro: ignore[rule-a]"\n'
        assert collect_suppressions(source) == {}

    def test_suppressed_finding_counted_but_not_active(self):
        result = fixture_findings("suppress", "suppressed.py")
        assert result.active_findings == []
        assert result.suppressed_count == 2
        assert all(f.rule == "collector-contract" for f in result.findings)
        assert result.ok


class TestSelfHosting:
    def test_src_repro_is_clean(self):
        # The acceptance bar: the checker runs clean on its own codebase.
        result = lint_paths([str(SRC_REPRO)])
        assert result.active_findings == [], render_text(result)
        assert result.files_checked > 70

    def test_rule_registry_is_complete(self):
        expected = {
            "cache-key-scoring-fields",
            "cache-key-unhashed-field",
            "cache-key-version",
            "collector-contract",
            "collector-merge-inplace",
            "float-accumulation",
            "lock-order-cycle",
            "nondeterministic-call",
            "unlocked-attribute-write",
            "unsorted-set-iteration",
        }
        assert set(RULE_REGISTRY) == expected
        assert [cls.id for cls in all_rules()] == sorted(expected)

    def test_unknown_rule_raises_usage_error(self):
        with pytest.raises(ReproError, match="unknown lint rule"):
            lint_paths([str(FIXTURES)], rule_ids=["no-such-rule"])

    def test_missing_path_raises_usage_error(self):
        with pytest.raises(ReproError, match="does not exist"):
            lint_paths([str(FIXTURES / "nope")])

    def test_rule_selection_restricts_findings(self):
        result = lint_paths(
            [str(FIXTURES)], rule_ids=["unsorted-set-iteration"]
        )
        assert result.rule_ids == ["unsorted-set-iteration"]
        rules = {f.rule for f in result.active_findings}
        assert rules <= {"unsorted-set-iteration", SYNTAX_ERROR_RULE}


class TestCliEndToEnd:
    def test_exit_zero_on_clean_path(self, capsys):
        code = main(["lint", str(FIXTURES / "collector" / "clean.py")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_exit_one_on_findings(self, capsys):
        code = main(["lint", str(FIXTURES / "collector")])
        out = capsys.readouterr().out
        assert code == 1
        assert "[collector-contract]" in out
        assert "hint:" in out

    def test_exit_two_on_unknown_rule(self, capsys):
        code = main(["lint", "--rule", "bogus", str(FIXTURES)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown lint rule" in err

    def test_exit_two_on_missing_path(self, capsys):
        code = main(["lint", str(FIXTURES / "definitely-missing")])
        assert code == 2

    def test_json_format_round_trips(self, capsys):
        code = main(["lint", "--format", "json", str(FIXTURES / "cache")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"]["findings"] == len(payload["findings"])
        assert payload["rules"] == sorted(RULE_REGISTRY)

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in RULE_REGISTRY:
            assert rule_id in out

    def test_render_json_is_stable(self):
        result = lint_paths([str(FIXTURES / "collector")])
        assert json.loads(render_json(result)) == json.loads(render_json(result))


class TestMeasuresListJson:
    def test_json_format_emits_describe_measures_records(self, capsys):
        from repro.engine import describe_measures

        code = main(["measures", "list", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        # Tuples in defaults become JSON arrays; compare post-round-trip.
        assert payload == json.loads(json.dumps(describe_measures()))
        names = {record["name"] for record in payload}
        assert {"occupancy", "classical", "components"} <= names

    def test_text_format_unchanged(self, capsys):
        code = main(["measures", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "registered measures" in out


class TestRealViolationRegressions:
    """The two real violations the linter surfaced stay fixed."""

    def test_bruteforce_component_scan_is_lint_clean(self):
        result = lint_paths(
            [str(SRC_REPRO / "temporal" / "bruteforce.py")],
            rule_ids=["unsorted-set-iteration"],
        )
        assert result.active_findings == []

    def test_bruteforce_component_sizes_insertion_order_invariant(self):
        import numpy as np

        from repro.temporal.bruteforce import bruteforce_component_sizes

        edges = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)]
        forward = bruteforce_component_sizes(
            8,
            np.array([a for a, _ in edges]),
            np.array([b for _, b in edges]),
        )
        backward = bruteforce_component_sizes(
            8,
            np.array([b for _, b in reversed(edges)]),
            np.array([a for a, _ in reversed(edges)]),
        )
        assert forward == backward == [3, 3, 2]

    def test_backends_is_lint_clean(self):
        result = lint_paths(
            [str(SRC_REPRO / "engine" / "backends.py")],
            rule_ids=["unlocked-attribute-write"],
        )
        assert result.active_findings == []
