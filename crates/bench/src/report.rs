//! Output handling for the table/figure subcommands: print to stdout and save
//! under `results/`.

use std::fs;
use std::path::PathBuf;

/// Directory the benches write their artifacts to.
pub(crate) fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints `markdown` and saves it (plus optional CSV) under `results/<name>.*`.
pub fn emit(name: &str, title: &str, markdown: &str, csv: Option<&str>) {
    println!("\n## {title}\n");
    println!("{markdown}");
    let dir = results_dir();
    if let Err(e) = fs::write(
        dir.join(format!("{name}.md")),
        format!("# {title}\n\n{markdown}"),
    ) {
        eprintln!("[refil-bench] could not write {name}.md: {e}");
    }
    if let Some(c) = csv {
        if let Err(e) = fs::write(dir.join(format!("{name}.csv")), c) {
            eprintln!("[refil-bench] could not write {name}.csv: {e}");
        }
    }
}

/// Saves a raw artifact (e.g. t-SNE point CSV) under `results/<name>`.
pub fn save_raw(name: &str, contents: &str) {
    let dir = results_dir();
    if let Err(e) = fs::write(dir.join(name), contents) {
        eprintln!("[refil-bench] could not write {name}: {e}");
    }
}
