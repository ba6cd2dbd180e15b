//! Micro-benchmarks for the error-coding substrate: the per-access
//! hardware operations Killi and the baselines model as 1-2 cycles.
//!
//! Runs on the in-repo [`killi_bench::timing`] harness (`cargo bench`);
//! tune the per-benchmark budget with `KILLI_BENCH_MS`.

use std::hint::black_box;

use killi_bench::timing::bench;
use killi_ecc::bch::dected;
use killi_ecc::bits::Line512;
use killi_ecc::olsc::OlscLine;
use killi_ecc::parity::{seg16, seg4};
use killi_ecc::secded::secded;

fn bench_parity() {
    let line = Line512::from_seed(1);
    bench("parity/seg16", || seg16(black_box(&line)));
    bench("parity/seg4", || seg4(black_box(&line)));
}

fn bench_secded() {
    let codec = secded();
    let line = Line512::from_seed(2);
    let code = codec.encode(&line);
    let mut corrupted = line;
    corrupted.flip_bit(100);
    bench("secded/encode", || codec.encode(black_box(&line)));
    bench("secded/decode_clean", || {
        codec.decode(black_box(&line), code)
    });
    bench("secded/decode_correct1", || {
        codec.decode(black_box(&corrupted), code)
    });
}

fn bench_dected() {
    let codec = dected();
    let line = Line512::from_seed(3);
    let code = codec.encode(&line);
    let mut two = line;
    two.flip_bit(9);
    two.flip_bit(400);
    let mut three = two;
    three.flip_bit(211);
    assert!(codec.decode(&three, code).is_uncorrectable());
    bench("dected/encode", || codec.encode(black_box(&line)));
    bench("dected/decode_clean", || {
        codec.decode(black_box(&line), code)
    });
    bench("dected/decode_correct2", || {
        codec.decode(black_box(&two), code)
    });
    bench("dected/decode_detect3", || {
        codec.decode(black_box(&three), code)
    });
}

fn bench_olsc() {
    let codec = OlscLine::new(8, 2);
    let line = Line512::from_seed(4);
    let check = codec.encode(&line);
    // Two flips in each of the eight 64-bit blocks: the most OLSC(8, 2)
    // corrects, so every block takes the majority-vote path.
    let mut two_per_block = line;
    for block in 0..8 {
        two_per_block.flip_bit(block * 64 + 5);
        two_per_block.flip_bit(block * 64 + 42);
    }
    // Three flips in one block exceed t = 2.
    let mut overloaded = line;
    for bit in [1, 9, 17] {
        overloaded.flip_bit(bit);
    }
    let mut probe = overloaded;
    assert!(codec.decode(&mut probe, &check).is_uncorrectable());
    bench("olsc/encode", || codec.encode(black_box(&line)));
    bench("olsc/decode_clean", || {
        let mut l = black_box(line);
        codec.decode(&mut l, &check)
    });
    bench("olsc/decode_correct2", || {
        let mut l = black_box(two_per_block);
        codec.decode(&mut l, &check)
    });
    bench("olsc/decode_detect", || {
        let mut l = black_box(overloaded);
        codec.decode(&mut l, &check)
    });
}

fn main() {
    bench_parity();
    bench_secded();
    bench_dected();
    bench_olsc();
}
