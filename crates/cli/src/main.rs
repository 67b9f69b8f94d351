//! `pdfatpg` — command-line front end; see `pdf_cli::USAGE`.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let output = pdf_cli::run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(e.code);
    });
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(output.as_bytes())
        .and_then(|()| stdout.flush())
    {
        // A reader that stops early (`pdfatpg paths b09 | head`) is not
        // an error.
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(pdf_cli::EXIT_ERROR);
        }
    }
}
