//! Thin binary wrapper over the `mgg-cli` library.

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_or_exit(mgg_cli::usage());
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    match mgg_cli::parse(&args).and_then(|cmd| mgg_cli::execute(&cmd)) {
        Ok(output) => print_or_exit(&output),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", mgg_cli::usage());
            std::process::exit(2);
        }
    }
}

/// Writes `text` to stdout, exiting with [`write_failure_code`]'s code if
/// the write fails.
fn print_or_exit(text: &str) {
    if let Err(e) = write_text(&mut io::stdout().lock(), text) {
        std::process::exit(write_failure_code(&e));
    }
}

fn write_text(out: &mut impl Write, text: &str) -> io::Result<()> {
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// Exit code after a failed write to stdout. A reader that closed the pipe
/// early (`mgg-cli ... | head`) wanted no more output, so that exits 0
/// quietly; any other write error is reported and exits 1.
fn write_failure_code(e: &io::Error) -> i32 {
    if e.kind() == io::ErrorKind::BrokenPipe {
        0
    } else {
        eprintln!("error: writing output: {e}");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts `room` bytes, then fails every write with `kind`.
    struct ClosingWriter {
        room: usize,
        kind: io::ErrorKind,
        written: Vec<u8>,
    }

    impl Write for ClosingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::from(self.kind));
            }
            let n = buf.len().min(self.room);
            self.written.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn closed_pipe_exits_zero_and_other_errors_exit_one() {
        let text = "gpu 0: 0..10\ngpu 1: 10..20\n";
        let mut open = Vec::new();
        write_text(&mut open, text).expect("a Vec never fails");
        assert_eq!(open, text.as_bytes());

        let mut closed =
            ClosingWriter { room: 5, kind: io::ErrorKind::BrokenPipe, written: Vec::new() };
        let e = write_text(&mut closed, text).expect_err("the pipe closed after 5 bytes");
        assert_eq!(closed.written, &text.as_bytes()[..5]);
        assert_eq!(write_failure_code(&e), 0);

        let mut failing =
            ClosingWriter { room: 0, kind: io::ErrorKind::Other, written: Vec::new() };
        let e = write_text(&mut failing, text).expect_err("the write failed");
        assert_eq!(write_failure_code(&e), 1);
    }
}
