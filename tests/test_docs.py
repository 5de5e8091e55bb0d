"""The docs tree: present, linked, and its examples can't rot."""

from __future__ import annotations

import re
import tomllib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = ("docs/architecture.md", "docs/rules.md", "docs/cli.md",
        "docs/fleet.md", "docs/observability.md", "docs/catalog.md")


class TestDocsTree:
    @pytest.mark.parametrize("relpath", DOCS)
    def test_document_exists_and_is_substantial(self, relpath):
        path = REPO / relpath
        assert path.is_file(), relpath
        assert len(path.read_text(encoding="utf-8")) > 1000, relpath

    def test_readme_links_every_document(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for relpath in DOCS:
            assert relpath in readme, relpath

    def test_rules_doc_covers_every_rule_type(self):
        from repro.alerts import RULE_TYPES

        text = (REPO / "docs/rules.md").read_text(encoding="utf-8")
        for kind in RULE_TYPES:
            assert f"`{kind}`" in text, kind

    def test_cli_doc_covers_every_subcommand_and_scheme(self):
        from repro.cli import build_parser
        from repro.sources import registered_schemes

        text = (REPO / "docs/cli.md").read_text(encoding="utf-8")
        subparsers = next(
            action for action in build_parser()._actions
            if hasattr(action, "choices") and action.choices)
        for command in subparsers.choices:
            assert f"`{command}" in text, command
        for scheme in registered_schemes():
            assert f"`{scheme}:`" in text, scheme

    def test_fleet_doc_lists_every_fleet_key(self):
        from repro.fleet.config import JOB_KEYS

        text = (REPO / "docs/fleet.md").read_text(encoding="utf-8")
        for key in JOB_KEYS:
            assert f"`{key}`" in text, key

    def test_cli_doc_lists_every_watch_job_flag(self):
        from repro.fleet.job import OPTIONS

        text = (REPO / "docs/cli.md").read_text(encoding="utf-8")
        for option in OPTIONS:
            if option.flag.startswith("--"):
                assert f"`{option.flag}" in text, option.flag


class TestCopyPasteableRules:
    def test_the_rules_md_example_validates(self, monkeypatch):
        """The fenced rules.toml in docs/rules.md must load through
        the real parser — a doc drift fails the suite."""
        from repro.alerts import RULE_TYPES
        from repro.alerts.config import parse_rules_data

        monkeypatch.setenv("PAGER_TOKEN", "docs-example")
        text = (REPO / "docs/rules.md").read_text(encoding="utf-8")
        match = re.search(r"```toml\n(.*?)```", text, re.DOTALL)
        assert match, "docs/rules.md lost its ```toml example"
        data = tomllib.loads(match.group(1))
        config = parse_rules_data(data, where="docs/rules.md example")
        assert {rule.kind for rule in config.rules} == \
            set(RULE_TYPES), \
            "the example should exercise every rule type"
        assert len(config.sinks) == 4
        assert config.baseline == "elog:known-good.elog"
        assert config.history_limit == 500
        assert any(rule.cooldown > 0 for rule in config.rules), \
            "the example should demonstrate cooldown"


class TestCopyPasteableCatalog:
    def test_the_catalog_md_example_validates(self):
        """The fenced mined-baseline rules example in docs/catalog.md
        must load through the real rules parser."""
        from repro.alerts.config import parse_rules_data

        text = (REPO / "docs/catalog.md").read_text(encoding="utf-8")
        match = re.search(r"```toml\n(.*?)```", text, re.DOTALL)
        assert match, "docs/catalog.md lost its ```toml example"
        data = tomllib.loads(match.group(1))
        config = parse_rules_data(data, where="docs/catalog.md example")
        assert config.baseline.startswith("catalog:"), \
            "the example should demonstrate a mined baseline"
        kinds = {rule.kind for rule in config.rules}
        assert "new_edge" in kinds
        assert any(getattr(rule, "absent_from_baseline", False)
                   for rule in config.rules), \
            "the example should demonstrate absent_from_baseline"


class TestCopyPasteableFleet:
    def test_the_fleet_md_example_validates(self, tmp_path):
        """The fenced fleet.toml in docs/fleet.md must load through
        the real parser — a doc drift fails the suite."""
        from repro.fleet import parse_fleet_data

        text = (REPO / "docs/fleet.md").read_text(encoding="utf-8")
        match = re.search(r"```toml\n(.*?)```", text, re.DOTALL)
        assert match, "docs/fleet.md lost its ```toml example"
        data = tomllib.loads(match.group(1))
        specs = parse_fleet_data(data, where="docs/fleet.md example",
                                 base_dir=tmp_path)
        by_name = {spec.name: spec for spec in specs}
        assert set(by_name) == {"app1", "app2", "app3"}
        # The shared defaults fan out; per-job overrides win.
        assert by_name["app1"].interval == 1.0
        assert by_name["app2"].interval == 5.0
        assert by_name["app1"].rules == str(tmp_path / "rules.toml")
        assert by_name["app3"].rules == \
            str(tmp_path / "app3-rules.toml")
        # Scheme spelling is preserved, relative paths resolved.
        assert by_name["app2"].source.startswith("strace:")
        assert by_name["app2"].window == 512
        assert by_name["app3"].alert_log == \
            str(tmp_path / "app3-alerts.jsonl")
