//! Captures build provenance for every result: the rustflags in effect
//! (the root `.cargo/config.toml` sets `-C target-cpu=native`), the
//! compiler version and the target triple.

use std::process::Command;

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=UMP_BENCH_RUSTFLAGS={flags}");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=UMP_BENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=UMP_BENCH_TARGET={}",
        std::env::var("TARGET").unwrap_or_default()
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
