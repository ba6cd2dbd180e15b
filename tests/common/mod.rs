//! Golden-file helpers shared by the integration tests.

use std::path::PathBuf;

/// The path of `tests/golden/<name>`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Asserts that `actual` equals the golden file `name`, or rewrites the
/// file when `KILLI_BLESS` is set (after an intentional output change).
#[allow(dead_code)] // not every test crate blesses files
pub fn check_or_bless(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("KILLI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with KILLI_BLESS=1", name));
    assert_eq!(actual, golden, "{name} diverged from its golden bytes");
}
