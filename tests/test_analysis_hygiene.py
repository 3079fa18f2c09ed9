"""Fixture tests of the api-hygiene family (API001-API002)."""

from repro.analysis.framework import analyze_source

ENGINE = "src/repro/engine/fixture.py"


def rules(source, path=ENGINE):
    ctx = analyze_source(source, path)
    return [f.rule for f in ctx.findings]


class TestApi001Annotations:
    def test_missing_parameter_annotation_fires(self):
        assert "API001" in rules("def run(matrix) -> int:\n    return 0\n")

    def test_missing_return_annotation_fires(self):
        assert "API001" in rules("def run(matrix: object):\n    return 0\n")

    def test_fully_annotated_is_clean(self):
        assert "API001" not in rules("def run(matrix: object) -> int:\n    return 0\n")

    def test_private_helpers_are_exempt(self):
        assert "API001" not in rules("def _helper(x):\n    return x\n")

    def test_self_needs_no_annotation(self):
        source = (
            "class Engine:\n"
            "    def run(self, matrix: object) -> int:\n"
            "        return 0\n"
        )
        assert "API001" not in rules(source)

    def test_nested_functions_are_exempt(self):
        source = (
            "def run(matrix: object) -> int:\n"
            "    def inner(x):\n"
            "        return x\n"
            "    return inner(0)\n"
        )
        assert "API001" not in rules(source)

    def test_scope_is_engine_fleet_analysis_only(self):
        source = "def run(matrix):\n    return 0\n"
        assert "API001" not in rules(source, path="src/repro/trng/fixture.py")
        assert "API001" in rules(source, path="src/repro/fleet/fixture.py")
        assert "API001" in rules(source, path="src/repro/analysis/fixture.py")


class TestApi002HelpDrift:
    def test_choice_absent_from_help_fires(self):
        source = (
            "parser.add_argument('--backend', choices=('packed', 'uint8'),\n"
            "                    help='use the packed backend')\n"
        )
        assert "API002" in rules(source)

    def test_all_choices_named_is_clean(self):
        source = (
            "parser.add_argument('--backend', choices=('packed', 'uint8'),\n"
            "                    help=\"word backend: 'packed' or 'uint8'\")\n"
        )
        assert "API002" not in rules(source)

    def test_dynamic_choices_are_not_checked(self):
        source = (
            "parser.add_argument('--test', choices=sorted(REGISTRY),\n"
            "                    help='which test to run')\n"
        )
        assert "API002" not in rules(source)
