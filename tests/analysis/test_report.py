"""Report-generator tests."""

from repro.analysis.report import generate_report


class TestReport:
    def test_contains_every_section(self):
        text = generate_report()
        for heading in (
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "MTTF",
            "elasticities",
            "cost vs availability",
        ):
            assert heading in text, f"missing section {heading!r}"

    def test_contains_headline_values(self):
        text = generate_report()
        assert "9^4" in text  # BDR fast-repair nines
        assert "9^8" in text  # DRA minimal config
        assert "9^9" in text  # saturation
        assert "lam_lpi" in text

    def test_runtime_section_lists_every_stage(self):
        text = generate_report(jobs=1)
        section = text.split("## Runtime")[1].split("```")[1]
        # the report times each of its stages itself and counts the
        # records each one produced: (stage, jobs, items) per row
        stages = [
            (line[:34].strip(), *line[34:].split()[0:3:2])
            for line in section.strip().splitlines()[1:-1]
        ]
        assert stages == [
            ("reliability sweep (Figure 6)", "1", "78"),
            ("availability sweep (Figure 7)", "1", "14"),
            ("performance sweep (Figure 8)", "1", "20"),
            ("MTTF extension", "1", "6"),
        ]

    def test_markdown_code_fences_balanced(self):
        text = generate_report()
        assert text.count("```") % 2 == 0
