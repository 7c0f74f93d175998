//! Thin binary wrapper over the `mgg-cli` library.

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_or_exit(mgg_cli::usage());
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    match run(&args) {
        Ok(output) => print_or_exit(&output),
        Err(failure) => {
            let (text, code) = failure_report(&failure);
            eprint!("{text}");
            std::process::exit(code);
        }
    }
}

/// Parses and runs one command line.
fn run(args: &[String]) -> Result<String, Failure> {
    let cmd = mgg_cli::parse(args).map_err(Failure::Usage)?;
    mgg_cli::execute(&cmd).map_err(Failure::Command)
}

/// Why a run failed.
#[derive(Debug)]
enum Failure {
    /// `parse` rejected the command line.
    Usage(String),
    /// A valid command failed when run, e.g. a `perfdiff --strict` that
    /// found a regression.
    Command(String),
}

/// What a failure prints to stderr, and the exit code. A usage error shows
/// the usage text and exits 2; a failed command prints only its error and
/// exits 1.
fn failure_report(failure: &Failure) -> (String, i32) {
    match failure {
        Failure::Usage(e) => (format!("error: {e}\n\n{}", mgg_cli::usage()), 2),
        Failure::Command(e) => (format!("error: {e}\n"), 1),
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

    #[test]
    fn usage_errors_exit_two_and_failed_commands_exit_one() {
        let args = |line: &str| line.split_whitespace().map(String::from).collect::<Vec<_>>();
        let usage = run(&args("simulate g.csr --gpus 0")).expect_err("--gpus 0 is rejected");
        assert!(matches!(usage, Failure::Usage(_)), "{usage:?}");
        let (text, code) = failure_report(&usage);
        assert_eq!(code, 2);
        assert!(text.starts_with("error: --gpus must be >= 1\n\n"), "{text}");
        assert!(text.ends_with(mgg_cli::usage()), "{text}");

        let failed = run(&args("stats /nonexistent/graph.csr")).expect_err("no such graph file");
        let Failure::Command(e) = &failed else { panic!("not a command failure: {failed:?}") };
        let (text, code) = failure_report(&failed);
        assert_eq!(code, 1);
        assert_eq!(text, format!("error: {e}\n"));
        assert!(!text.contains("usage:"), "{text}");
    }
}
