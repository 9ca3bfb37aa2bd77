"""Acceptance suite: twelve end-to-end behavior checks, one per test.

Each test prints one `criterion NN: PASS/FAIL` line (run pytest with -s to
watch them) and then asserts, so a red criterion is also a red test.
"""

import os
import time

import numpy as np

from lbpmarkdex import (
    DiffPair,
    GrayImage,
    Index,
    ZoneClass,
    build_pyramid,
    capacity,
    classify,
    compute_descriptor,
    decode_payload,
    descriptor_distance,
    embed,
    extract,
    forward_transform,
    index_add,
    inverse_transform,
    lbp_histogram,
    load_pgm,
    precision_recall,
    query_by_image,
    read_stored,
    relink,
    write_pgm,
)
from lbpmarkdex.errors import ChecksumMismatch, PayloadTooLarge
from lbpmarkdex.evaluation import EvalSets, class_mean_pr

from helpers import (
    banded_noise_image,
    flip_stream_bit,
    gradient_image,
    impulse_image,
    max_feasible_bytes,
    parse_wire,
    reference_pr_curve,
    sample_patient,
    smooth_noise_image,
    stripe_image,
)
from test_lbp import oracle_histogram


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


class TestAcceptance:
    def test_criterion_01_transform_identity_exhaustive(self):
        started = time.perf_counter()
        failures = 0
        for x in range(256):
            for y in range(256):
                if inverse_transform(forward_transform(x, y)) != (x, y):
                    failures += 1
        elapsed = time.perf_counter() - started
        ok = failures == 0 and elapsed < 1.0
        report(1, ok, f"{65536 - failures}/65536 identities in {elapsed:.2f}s")
        assert failures == 0
        assert elapsed < 1.0

    def test_criterion_02_bound_keeps_pixels_in_range(self):
        violations = 0
        for x in range(256):
            for y in range(256):
                pair = forward_transform(x, y)
                zone = classify(pair)
                writes = []
                if zone is ZoneClass.EXPANDABLE:
                    writes += [2 * pair.h, 2 * pair.h + 1]
                if zone is not ZoneClass.UNCHANGEABLE:
                    base = 2 * (pair.h // 2)
                    writes += [base, base + 1]
                for written in writes:
                    x2, y2 = inverse_transform(DiffPair(pair.l, written))
                    if not (0 <= x2 <= 255 and 0 <= y2 <= 255):
                        violations += 1
        ok = violations == 0
        report(2, ok, f"{violations} out-of-range reconstructions over all writes")
        assert violations == 0

    def test_criterion_03_reversibility_end_to_end(self):
        rng = np.random.default_rng(99)
        started = time.perf_counter()
        checked = 0
        infeasible = 0
        for i in range(200):
            width = int(rng.integers(12, 129))
            height = int(rng.integers(12, 129))
            if i % 3 == 0:  # force odd dims regularly
                width = width + 1 if width % 2 == 0 and width < 128 else width | 1
                height = height + 1 if height % 2 == 0 and height < 128 else height | 1
                width = min(width, 127)
                height = min(height, 127)
            if i % 4 == 0 and width >= 24 and height >= 20:
                img = banded_noise_image(rng, width, height)
            else:
                img = smooth_noise_image(rng, width, height)
            size = max_feasible_bytes(img)
            if size is None:
                infeasible += 1
                continue
            payload = rng.bytes(size)
            marked = embed(img, payload)
            data, restored = extract(marked)
            assert data[: len(payload)] == payload, f"payload mismatch on image {i}"
            assert restored == img, f"pixel mismatch on image {i}"
            assert write_pgm(restored) == write_pgm(img)
            checked += 1
        elapsed = time.perf_counter() - started
        ok = checked == 200 - infeasible and infeasible == 0 and elapsed < 30.0
        report(
            3,
            ok,
            f"{checked}/200 exact round trips, {infeasible} infeasible, {elapsed:.1f}s",
        )
        assert infeasible == 0
        assert checked == 200
        assert elapsed < 30.0

    def test_criterion_04_changeability_survives_writes(self):
        violations = 0
        for x in range(256):
            for y in range(256):
                pair = forward_transform(x, y)
                zone = classify(pair)
                if zone is ZoneClass.UNCHANGEABLE:
                    continue
                for b in (0, 1):
                    if zone is ZoneClass.EXPANDABLE:
                        written = 2 * pair.h + b
                        if pair.h != written // 2:  # expanded value must restore h
                            violations += 1
                    else:
                        written = 2 * (pair.h // 2) + b
                        if 2 * (written // 2) + (pair.h % 2) != pair.h:
                            violations += 1
                    if classify(DiffPair(pair.l, written)) is ZoneClass.UNCHANGEABLE:
                        violations += 1
        ok = violations == 0
        report(4, ok, f"{violations} pairs lost changeability or restorability")
        assert violations == 0

    def test_criterion_05_lbp_matches_brute_force(self):
        rng = np.random.default_rng(123)
        mismatches = 0
        for _ in range(50):
            pixels = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
            img = GrayImage(pixels)
            if not np.array_equal(lbp_histogram(img), oracle_histogram(pixels)):
                mismatches += 1
        ok = mismatches == 0
        report(5, ok, f"{50 - mismatches}/50 histograms equal the oracle")
        assert mismatches == 0

    def test_criterion_06_pyramid_shapes(self):
        big = build_pyramid(GrayImage(np.full((512, 512), 90)))
        odd = build_pyramid(GrayImage(np.full((13, 13), 90)))
        big_shapes = [(lv.height, lv.width) for lv in big]
        odd_shapes = [(lv.height, lv.width) for lv in odd]
        ok = big_shapes == [(512, 512), (256, 256), (128, 128)] and odd_shapes == [
            (13, 13),
            (7, 7),
            (4, 4),
        ]
        report(6, ok, f"512 chain {big_shapes}, 13 chain {odd_shapes}")
        assert big_shapes == [(512, 512), (256, 256), (128, 128)]
        assert odd_shapes == [(13, 13), (7, 7), (4, 4)]

    def test_criterion_07_descriptor_sanity(self):
        img = GrayImage(np.full((12, 12), 55))
        descriptor = compute_descriptor(img)
        expected = np.zeros(256, dtype=np.int64)
        expected[255] = 117
        self_distance = descriptor_distance(descriptor, descriptor)
        ok = np.array_equal(descriptor, expected) and self_distance == 0.0
        report(
            7,
            ok,
            f"bins[255]={descriptor[255]}, other mass="
            f"{int(descriptor.sum()) - int(descriptor[255])}, self-distance={self_distance}",
        )
        assert np.array_equal(descriptor, expected)
        assert self_distance == 0.0

    def test_criterion_08_precision_recall_formulas(self):
        relevant = {f"r{i}" for i in range(6)}
        answers = ["r0", "r1", "r2", "x0", "x1"]
        precision, recall = precision_recall(EvalSets(relevant, answers))
        exact = precision == 0.6 and recall == 0.5
        rng = np.random.default_rng(321)
        monotone_failures = 0
        for _ in range(100):
            n = int(rng.integers(2, 40))
            ids = [f"d{i}" for i in range(n)]
            rel = set(rng.choice(ids, size=int(rng.integers(1, n)), replace=False))
            ranking = list(rng.permutation(ids))
            curve = reference_pr_curve(ranking, rel, list(range(1, n + 1)))
            recalls = [r for _, _, r in curve]
            if recalls != sorted(recalls):
                monotone_failures += 1
        ok = exact and monotone_failures == 0
        report(
            8,
            ok,
            f"P={precision} R={recall}, {100 - monotone_failures}/100 monotone curves",
        )
        assert precision == 0.6 and recall == 0.5
        assert monotone_failures == 0

    def test_criterion_09_self_retrieval(self, tmp_path):
        rng = np.random.default_rng(555)
        index_path = str(tmp_path / "index.tsv")
        store_dir = str(tmp_path / "store")
        originals = {}
        for i in range(12):
            image_id = f"img{i:03d}"
            img = smooth_noise_image(rng, 160, 160)
            index_add(index_path, img, image_id, sample_patient(i), store_dir)
            originals[image_id] = img
        misses = []
        for image_id, img in originals.items():
            top = query_by_image(img, index_path, 1)[0]
            if top.image_id != image_id or top.distance != 0.0:
                misses.append(image_id)
        ok = not misses
        report(9, ok, f"{12 - len(misses)}/12 self-queries at rank 1 with distance 0")
        assert misses == []

    def test_criterion_10_tamper_detection(self, tmp_path):
        rng = np.random.default_rng(777)
        index_path = str(tmp_path / "index.tsv")
        store_dir = str(tmp_path / "store")
        entry = index_add(
            index_path,
            smooth_noise_image(rng, 160, 160),
            "victim",
            sample_patient(0),
            store_dir,
        )
        marked = load_pgm(entry.locator)
        wire = parse_wire(marked.pixels.astype(np.int64))
        data_start = wire["data_start"]
        raw = extract(marked)[0]
        body_len = int.from_bytes(raw[6:10], "big")  # header: magic 4, ver 1, flags 1
        # flips land inside the checksummed body, past the 16-byte header
        lo = data_start + 128
        hi = data_start + 8 * (16 + body_len)
        detected = 0
        for _ in range(100):
            bit = int(rng.integers(lo, hi))
            tampered = flip_stream_bit(marked, bit)
            try:
                decode_payload(extract(tampered)[0])
            except ChecksumMismatch:
                detected += 1
        ok = detected >= 99
        report(10, ok, f"{detected}/100 flips raised ChecksumMismatch")
        assert detected >= 99

    def test_criterion_11_relink_rebuilds_index(self, tmp_path):
        rng = np.random.default_rng(888)
        index_path = str(tmp_path / "index.tsv")
        store_dir = str(tmp_path / "store")
        for i in range(10):
            index_add(
                index_path,
                smooth_noise_image(rng, 160, 160),
                f"scan{i:02d}",
                sample_patient(i),
                store_dir,
            )
        before = Index.load(index_path)
        os.unlink(index_path)
        rebuilt, rebuild_report = relink(store_dir, index_path)
        ok = (
            rebuilt == before
            and Index.load(index_path) == before
            and not rebuild_report.unreadable
            and not rebuild_report.conflicting
        )
        report(
            11,
            ok,
            f"{len(rebuilt)}/10 rows recovered, "
            f"{len(rebuild_report.unreadable)} unreadable, "
            f"{len(rebuild_report.conflicting)} conflicting",
        )
        assert rebuilt == before
        assert Index.load(index_path) == before

    def test_criterion_12_texture_corpus_precision(self, tmp_path):
        rng = np.random.default_rng(1234)
        started = time.perf_counter()
        index_path = str(tmp_path / "index.tsv")
        store_dir = str(tmp_path / "store")
        makers = {
            "gradient": gradient_image,
            "impulse": impulse_image,
            "stripe": stripe_image,
        }
        serial = 0
        for label, make in makers.items():
            for i in range(20):
                image_id = f"{label}{i:02d}"
                index_add(
                    index_path,
                    make(rng),
                    image_id,
                    sample_patient(serial),
                    store_dir,
                    class_label=label,
                )
                serial += 1
        index = Index.load(index_path)
        descriptors = {
            e.image_id: read_stored(e.locator).descriptor
            for e in index.entries
        }
        labels = {e.image_id: e.class_label for e in index.entries}
        rows = class_mean_pr(descriptors, labels, [1, 5, 10])
        at_ten = [p for _, k, p, _ in rows if k == 10]
        mean_precision = sum(at_ten) / len(at_ten)
        chance = 19 / 59
        elapsed = time.perf_counter() - started
        ok = mean_precision > 2 * chance and elapsed < 60.0
        report(
            12,
            ok,
            f"mean precision@10 {mean_precision:.3f} vs threshold "
            f"{2 * chance:.3f}, {elapsed:.1f}s",
        )
        assert mean_precision > 2 * chance
        assert elapsed < 60.0
