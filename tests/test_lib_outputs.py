"""tools/record_outputs.py, library: two quick recordings of one tree hold the same bytes."""


def test_two_quick_runs_on_the_working_tree_give_identical_bytes(quick_recordings):
    files = [{p.name: p.read_bytes() for p in (out / "lib").iterdir()}
             for out in quick_recordings]
    assert files[0] == files[1]
    assert sorted(files[0]) == [
        "cli-ingest-h-s00-a", "cli-ingest-h-s00-b", "iter-f-long-s00",
        *(f"ransac-outliers-s00-{kind}" for kind in ("f-7pt", "f-gep", "f-min", "h-4pt",
                                                     "h-min")),
    ]
    # every op ran to a result, and the two CLI calls wrote the same report
    assert not any(text.startswith(b"error") for text in files[0].values())
    assert files[0]["cli-ingest-h-s00-a"] == files[0]["cli-ingest-h-s00-b"]
    for kind in ("f-7pt", "h-4pt"):
        assert files[0][f"ransac-outliers-s00-{kind}"].startswith(b"beta 0x0.0p+0\n")
