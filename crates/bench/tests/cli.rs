//! The `figures` command line: anything that is not a command fails.

use std::process::Command;

#[test]
fn unknown_and_retired_commands_print_usage_and_fail() {
    for command in ["nope", "bench"] {
        let output = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg(command)
            .output()
            .expect("figures binary runs");
        assert!(
            !output.status.success(),
            "`figures {command}` must exit non-zero"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown command `{command}`")) && stderr.contains("usage:"),
            "`figures {command}` must name the command and print usage, got: {stderr}"
        );
    }
}
