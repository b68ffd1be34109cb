"""Tests for the example data model, JSONL round-trips, splits, and chunking."""

import dataclasses
import json
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsel.corpus import (
    DatasetError,
    Example,
    example_from_record,
    example_to_record,
    load_examples,
    observed_labels,
    sample_chunks,
    save_examples,
    split_dataset,
)

labels_st = st.sampled_from(["person", "org", "location", "date"])
values_st = st.frozensets(st.text(alphabet="abcdef XYZ", min_size=1, max_size=8).filter(str.strip), max_size=3)
entities_st = st.dictionaries(labels_st, values_st, max_size=3)
# what json escapes (quotes, backslashes, control characters) and what it writes as is (non-ASCII, non-BMP)
escaped_chars_st = st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é😀')
escaped_text_st = st.text(
    alphabet=st.one_of(escaped_chars_st, st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=12
)


def example_st(ident: str) -> st.SearchStrategy[Example]:
    return st.builds(
        Example,
        id=st.just(ident),
        text=st.text(min_size=1, max_size=40).filter(lambda s: s),
        entities=entities_st,
        provenance=st.sampled_from(["synthetic", "human"]),
    )


class TestExample:
    def test_entities_are_frozen_sets(self):
        ex = Example(id="a", text="x", entities={"person": ["Ann", "Ann", "Bo"]})
        assert ex.entities == {"person": frozenset({"Ann", "Bo"})}

    def test_rejects_empty_text(self):
        with pytest.raises(DatasetError):
            Example(id="a", text="")

    def test_rejects_empty_id(self):
        with pytest.raises(DatasetError):
            Example(id="", text="x")

    def test_rejects_blank_entity_value(self):
        with pytest.raises(DatasetError):
            Example(id="a", text="x", entities={"person": ["  "]})

    def test_rejects_unknown_provenance(self):
        with pytest.raises(DatasetError):
            Example(id="a", text="x", provenance="oracle")

    @pytest.mark.parametrize("values", [("Ann", "Bo"), {"Ann", "Bo"}, frozenset({"Ann", "Bo"})])
    def test_takes_any_collection_of_values(self, values):
        ex = Example(id="a", text="x", entities={"person": values})
        assert ex.entities == {"person": frozenset({"Ann", "Bo"})}

    @pytest.mark.parametrize(
        "entities",
        [
            pytest.param({"Revenue": "12"}, id="string-value"),  # was split into {"1", "2"}
            pytest.param({"Revenue": {"12": 1}}, id="dict-value"),  # was its keys
            pytest.param({"Revenue": 5}, id="int-value"),  # was a bare TypeError
        ],
    )
    def test_constructor_takes_only_a_collection_of_values(self, entities):
        with pytest.raises(DatasetError, match=r"^entities\['Revenue'\] must be a list of strings$"):
            Example(id="a", text="t", entities=entities)

    @pytest.mark.parametrize("entities", ["x", ["Revenue"]], ids=["string", "list"])  # "x" was a bare AttributeError
    def test_constructor_takes_only_a_mapping_of_entities(self, entities):
        with pytest.raises(DatasetError, match="^entities must be an object mapping label to a list of values$"):
            Example(id="a", text="t", entities=entities)

    def test_numpy_strings_build_replace_and_round_trip(self, tmp_path):
        # numpy.str_ cannot be interned itself; the example holds one plain str per label and provenance
        plain = Example(id="a", text="x", entities={"person": ["Ann", "Bo"]}, provenance="human")
        ex = Example(
            id="a", text="x", entities={np.str_("person"): [np.str_("Ann"), np.str_("Bo")]}, provenance=np.str_("human")
        )
        assert ex == plain
        assert type(ex.provenance) is str and ex.provenance is plain.provenance
        [label] = ex.entities
        assert label is next(iter(plain.entities))
        moved = dataclasses.replace(ex, id="b")
        assert moved.entities == ex.entities
        save_examples([ex, moved], tmp_path / "numpy.jsonl")
        save_examples([plain, dataclasses.replace(plain, id="b")], tmp_path / "plain.jsonl")
        assert (tmp_path / "numpy.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
        assert load_examples(tmp_path / "numpy.jsonl") == [ex, moved]

    def test_takes_a_mapping_that_is_not_a_dict(self):
        ex = Example(id="a", text="x", entities=types.MappingProxyType({"person": ["Ann", "Bo"]}))
        assert ex.entities == {"person": frozenset({"Ann", "Bo"})}
        with pytest.raises(DatasetError, match=r"^entities\['person'\] must be a list of strings$"):
            Example(id="a", text="x", entities=types.MappingProxyType({"person": "Ann"}))

    def test_has_no_instance_dict(self):
        ex = Example(id="a", text="x")
        assert not hasattr(ex, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(ex)


class TestObservedLabels:
    def test_first_seen_order(self):
        exs = [
            Example(id="1", text="x", entities={"org": ["A"]}),
            Example(id="2", text="y", entities={"person": ["B"], "org": ["C"]}),
        ]
        assert observed_labels(exs) == ("org", "person")

    def test_requires_some_labels(self):
        with pytest.raises(DatasetError, match="no entity labels observed"):
            observed_labels([Example(id="1", text="x")])


class TestJsonlRoundTrip:
    @settings(max_examples=60)
    @given(examples=st.lists(st.integers(0, 10_000), min_size=1, max_size=8, unique=True).flatmap(
        lambda ids: st.tuples(*(example_st(f"ex-{i}") for i in ids))
    ))
    def test_round_trip_preserves_examples(self, tmp_path_factory, examples):
        path = tmp_path_factory.mktemp("rt") / "examples.jsonl"
        save_examples(examples, path)
        assert load_examples(path) == list(examples)

    @settings(max_examples=100)
    @given(
        examples=st.lists(
            st.builds(
                Example,
                id=escaped_text_st,
                text=escaped_text_st,
                # several labels, several values each, a label with none, or no label at all (a negative)
                entities=st.dictionaries(
                    escaped_text_st, st.lists(escaped_text_st.filter(str.strip), max_size=3), max_size=3
                ),
                provenance=st.sampled_from(["synthetic", "human"]),
            ),
            max_size=4,
        )
    )
    def test_saved_lines_are_the_json_dumps_of_each_record(self, tmp_path_factory, examples):
        path = tmp_path_factory.mktemp("lines") / "examples.jsonl"
        save_examples(examples, path)
        lines = [json.dumps(example_to_record(ex), ensure_ascii=False, sort_keys=True) + "\n" for ex in examples]
        assert path.read_bytes() == "".join(lines).encode("utf-8")

    def test_missing_entities_defaults_to_empty(self):
        ex = example_from_record({"id": "a", "text": "x"})
        assert ex.entities == {}

    def test_record_serialization_sorted(self):
        ex = Example(id="a", text="x", entities={"org": ["b", "a"]})
        rec = example_to_record(ex)
        assert rec["entities"] == {"org": ["a", "b"]}

    def test_load_reports_line_number_for_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{nope\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"bad\.jsonl:2"):
            load_examples(path)

    def test_load_reports_line_number_for_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": ""}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"bad\.jsonl:2"):
            load_examples(path)

    @pytest.mark.parametrize("ident", [["a"], 5])
    def test_load_rejects_non_string_id_with_line_number(self, tmp_path, ident):
        # an int id would be written back as the same text as its string twin
        path = tmp_path / "ids.jsonl"
        lines = [json.dumps({"id": "5", "text": "x"}), json.dumps({"id": ident, "text": "y"})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"ids\.jsonl:2: example id must be a non-empty string"):
            load_examples(path)

    @pytest.mark.parametrize("value", [["v"], {"v": 1}], ids=["list", "object"])
    def test_load_rejects_unhashable_entity_value_with_line_number(self, tmp_path, value):
        path = tmp_path / "values.jsonl"
        lines = [json.dumps({"id": "a", "text": "x"}), json.dumps({"id": "b", "text": "y", "entities": {"x": [value]}})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"values\.jsonl:2: entity value for label 'x' must be a non-empty string"):
            load_examples(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "\ud800", "text": "y"},
            {"id": "b", "text": "y \udfff"},
            {"id": "b", "text": "y", "entities": {"x\ud800": ["v"]}},
            {"id": "b", "text": "y", "entities": {"x": ["v\ud800"]}},
        ],
        ids=["id", "text", "label", "value"],
    )
    def test_load_rejects_a_lone_surrogate_with_line_number(self, tmp_path, record):
        # JSON "\ud800" reads as a str that save_examples could not write back
        path = tmp_path / "lone.jsonl"
        path.write_text(json.dumps({"id": "a", "text": "x"}) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"lone\.jsonl:2: '\\ud[0-9a-f]{3}' does not encode as UTF-8"):
            load_examples(path)

    def test_load_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rec = json.dumps({"id": "a", "text": "x"})
        path.write_text(rec + "\n" + rec + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="duplicate example id"):
            load_examples(path)

    def test_load_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        path.write_text('{"id": "a", "text": "x", "score": 3, "rank": 1}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"extra\.jsonl:1: record has unknown fields: \['rank', 'score'\]$"):
            load_examples(path)

    @settings(max_examples=150)
    @given(
        record=st.fixed_dictionaries(
            {"id": escaped_text_st, "text": escaped_text_st},
            optional={
                "entities": st.dictionaries(
                    escaped_text_st, st.lists(escaped_text_st.filter(str.strip), max_size=3), max_size=3
                ),
                "provenance": st.sampled_from(["synthetic", "human", "other"]),
                "score": st.integers(),
            },
        ),
        # a record as json writes it, then maybe spoiled: cut short, trailing data, a BOM, or a value not an object
        spoil=st.sampled_from(["", "cut", "trailing", "bom", "array", "number", "word"]),
        cut=st.integers(1, 40),
    )
    def test_load_reads_each_line_as_json_loads_does(self, tmp_path_factory, record, spoil, cut):
        line = json.dumps(record, ensure_ascii=False)
        line = {
            "": line, "cut": line[: max(1, len(line) - cut)], "trailing": line + " {}", "bom": "\ufeff" + line,
            "array": f"[{line}]", "number": str(cut), "word": "nope",
        }[spoil].strip()
        path = tmp_path_factory.mktemp("lines") / "one.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            expected = [example_from_record(json.loads(line))]
        except ValueError as exc:  # DatasetError or json.JSONDecodeError
            with pytest.raises(DatasetError) as raised:
                load_examples(path)
            assert str(raised.value) == f"{path}:1: {exc}"
        else:
            assert load_examples(path) == expected

    @pytest.mark.parametrize(
        "line",
        ['{"id": "b", "text": "y", "n": ' + "1" * 5000 + "}", "[" * 100_000],
        ids=["digit-limit", "recursion-limit"],
    )
    def test_load_reports_line_number_for_a_line_json_cannot_hold(self, tmp_path, line):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"deep\.jsonl:2: "):
            load_examples(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n\n{"id": "b", "text": "y"}\n', encoding="utf-8")
        assert [ex.id for ex in load_examples(path)] == ["a", "b"]

    def test_non_list_entity_values_rejected(self):
        with pytest.raises(DatasetError, match="list"):
            example_from_record({"id": "a", "text": "x", "entities": {"org": "A"}})


def _numbered(n: int) -> list[Example]:
    return [Example(id=f"e{i}", text=f"text {i}") for i in range(n)]


class TestSplitDataset:
    def test_partition_is_disjoint_and_complete(self):
        examples = _numbered(20)
        candidates, validation = split_dataset(examples, n_validation=6, seed=3)
        assert len(candidates) == 14
        assert len(validation) == 6
        combined = sorted(candidates + validation, key=lambda e: int(e.id[1:]))
        assert combined == examples

    def test_deterministic_per_seed(self):
        examples = _numbered(30)
        a = split_dataset(examples, n_validation=10, seed=7)
        b = split_dataset(examples, n_validation=10, seed=7)
        c = split_dataset(examples, n_validation=10, seed=8)
        assert a == b
        assert {e.id for e in a[1]} != {e.id for e in c[1]}

    def test_preserves_relative_order(self):
        examples = _numbered(25)
        for part in split_dataset(examples, n_validation=9, seed=1):
            indices = [int(e.id[1:]) for e in part]
            assert indices == sorted(indices)

    def test_rejects_validation_not_smaller_than_pool(self):
        with pytest.raises(DatasetError):
            split_dataset(_numbered(5), n_validation=5, seed=0)

    def test_duplicate_input_id_rejected(self):
        # a repeated id could land on both sides, and the validation score would include a demonstration
        examples = _numbered(6) + [Example(id="e2", text="again")]
        with pytest.raises(DatasetError, match="example id"):
            split_dataset(examples, n_validation=3, seed=0)


class TestSampleChunks:
    def test_chunks_lie_on_offset_grid(self):
        text = "abcdefghij" * 37
        windows = {text[off : off + 16] for off in range(0, len(text), 16)}
        for chunk in sample_chunks(text, 16, n=50, seed=5):
            assert chunk in windows

    def test_final_chunk_may_be_short(self):
        chunks = set(sample_chunks("abcde", 3, n=64, seed=0))
        assert chunks <= {"abc", "de"}
        assert "de" in chunks

    def test_deterministic(self):
        assert sample_chunks("xyz" * 100, 10, 20, seed=4) == sample_chunks("xyz" * 100, 10, 20, seed=4)

    def test_zero_count(self):
        assert sample_chunks("abc", 2, 0, seed=1) == []

    def test_document_shorter_than_chunk(self):
        assert set(sample_chunks("ab", 100, 10, seed=2)) == {"ab"}
