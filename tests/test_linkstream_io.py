"""Unit tests for the link-stream readers and the TSV writer."""

import gzip

import numpy as np
import pytest

from repro.linkstream import (
    LinkStream,
    iter_triples,
    read_csv,
    read_event_arrays,
    read_tsv,
    write_tsv,
)
from repro.utils.errors import LinkStreamError

#: The ``sample`` stream's events as literal CSV and JSON-lines text.
SAMPLE_CSV = "a,b,1.0\nb,c,2.0\na,c,5.0\n"
SAMPLE_JSONL = (
    '{"u": "a", "v": "b", "t": 1.0}\n'
    '{"u": "b", "v": "c", "t": 2.0}\n'
    '{"u": "a", "v": "c", "t": 5.0}\n'
)


@pytest.fixture
def sample() -> LinkStream:
    return LinkStream.from_triples(
        [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0)]
    )


def read_jsonl_stream(path) -> LinkStream:
    """A JSON-lines file as a stream, through the chunked array reader."""
    u, v, t, labels = read_event_arrays(path, fmt="jsonl")
    return LinkStream(u, v, t, num_nodes=len(labels), labels=labels)


class TestRoundTrips:
    def test_tsv_roundtrip(self, sample, tmp_path):
        path = tmp_path / "events.tsv"
        write_tsv(sample, path)
        back = read_tsv(path)
        assert [e for e in back.events()] == [e for e in sample.events()]

    def test_csv_roundtrip(self, sample, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(SAMPLE_CSV)
        back = read_csv(path)
        assert [e for e in back.events()] == [e for e in sample.events()]

    def test_jsonl_roundtrip(self, sample, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(SAMPLE_JSONL)
        back = read_jsonl_stream(path)
        assert [e for e in back.events()] == [e for e in sample.events()]

    def test_column_order_roundtrip(self, sample, tmp_path):
        path = tmp_path / "tuv.tsv"
        write_tsv(sample, path, columns="t u v")
        back = read_tsv(path, columns="t u v")
        assert [e for e in back.events()] == [e for e in sample.events()]


class TestGzip:
    def test_tsv_gz_roundtrip(self, sample, tmp_path):
        path = tmp_path / "events.tsv.gz"
        write_tsv(sample, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # really compressed
        back = read_tsv(path)
        assert [e for e in back.events()] == [e for e in sample.events()]

    def test_csv_gz_roundtrip(self, sample, tmp_path):
        path = tmp_path / "events.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(SAMPLE_CSV)
        back = read_csv(path)
        assert [e for e in back.events()] == [e for e in sample.events()]

    def test_jsonl_gz_roundtrip(self, sample, tmp_path):
        path = tmp_path / "events.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(SAMPLE_JSONL)
        back = read_jsonl_stream(path)
        assert [e for e in back.events()] == [e for e in sample.events()]

    def test_reads_externally_gzipped_konect_dump(self, tmp_path):
        path = tmp_path / "out.contact.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("% konect header\na b 1\nb c 2\n")
        stream = read_tsv(path)
        assert stream.num_events == 2


class TestParsing:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("% konect header\n# comment\n\na b 1\nb c 2\n")
        stream = read_tsv(path)
        assert stream.num_events == 2

    def test_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("a b 1 weight=3\n")
        stream = read_tsv(path)
        assert stream.num_events == 1

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("a b not-a-number\n")
        with pytest.raises(LinkStreamError, match=":1"):
            read_tsv(path)

    def test_too_few_fields_rejected(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("a b\n")
        with pytest.raises(LinkStreamError):
            read_tsv(path)

    def test_bad_columns_spec_rejected(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("a b 1\n")
        with pytest.raises(LinkStreamError):
            read_tsv(path, columns="u v w")

    def test_jsonl_missing_key_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"u": "a", "t": 1}\n')
        with pytest.raises(LinkStreamError, match="missing key"):
            read_jsonl_stream(path)

    def test_directed_flag_respected(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("b a 1\n")
        stream = read_tsv(path, directed=False)
        assert not stream.directed


class TestChunkedReader:
    @pytest.fixture
    def events_file(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text(
            "".join(f"n{i % 4} n{(i + 1) % 4} {i}\n" for i in range(10))
        )
        return path

    def test_iter_triples_dispatches_formats(self, tmp_path, sample):
        tsv, csv, jsonl = (
            tmp_path / "e.tsv",
            tmp_path / "e.csv",
            tmp_path / "e.jsonl",
        )
        write_tsv(sample, tsv)
        csv.write_text(SAMPLE_CSV)
        jsonl.write_text(SAMPLE_JSONL)
        expected = list(iter_triples(tsv))
        assert list(iter_triples(csv, fmt="csv")) == expected
        assert list(iter_triples(jsonl, fmt="jsonl")) == expected
        with pytest.raises(LinkStreamError, match="unknown stream format"):
            iter_triples(tsv, fmt="xml")

    @pytest.mark.parametrize("chunk_events", [1, 3, 10, 1000])
    def test_chunk_size_never_changes_the_stream(self, events_file, chunk_events):
        whole = read_tsv(events_file)
        u, v, t, labels = read_event_arrays(
            events_file, chunk_events=chunk_events
        )
        chunked = LinkStream(
            u, v, t, directed=True, num_nodes=len(labels), labels=labels
        )
        assert chunked == whole
        assert chunked.fingerprint() == whole.fingerprint()
        assert labels == whole.labels  # first-seen order preserved
        assert t.dtype == np.float64

    def test_empty_file_returns_empty_columns(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing here\n")
        u, v, t, labels = read_event_arrays(path)
        assert u.size == v.size == t.size == 0
        assert labels == []
        assert (u.dtype, v.dtype, t.dtype) == (
            np.int64,
            np.int64,
            np.float64,
        )

    def test_invalid_chunk_argument_rejected(self, events_file):
        with pytest.raises(LinkStreamError, match="chunk_events"):
            read_event_arrays(events_file, chunk_events=0)
