//! `xord-client --addr HOST:PORT [-c SQL]...` — line-mode client for
//! `xord-server`.
//!
//! With `-c` flags, runs each statement once and exits (exit code 1 if
//! any failed) — the scripted mode the CI `server-smoke` job uses.
//! Without `-c`, reads statements from stdin, one per line:
//!
//! * `SELECT …` / `EXPLAIN …` — run remotely, print rows (tab-separated)
//! * anything else — `Execute`, print the affected-row count
//! * `\ping`, `\set KEY VALUE`, `\q` — protocol commands

use std::io::{BufRead, Write};

use ordb::net::Client;
use ordb::{DbError, QueryResult, Result};

fn main() {
    let mut addr = "127.0.0.1:4000".to_string();
    let mut commands: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => {
                if let Some(v) = args.next() {
                    addr = v;
                }
            }
            "-c" => {
                if let Some(v) = args.next() {
                    commands.push(v);
                }
            }
            "--help" | "-h" => {
                println!("usage: xord-client [--addr HOST:PORT] [-c SQL]...");
                return;
            }
            other => {
                eprintln!("xord-client: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xord-client: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let mut failed = false;
    if commands.is_empty() {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == "\\q" {
                break;
            }
            if let Err(e) = run_line(&mut client, line) {
                eprintln!("error: {e}");
                failed = true;
            }
            let _ = std::io::stdout().flush();
        }
    } else {
        for cmd in &commands {
            if let Err(e) = run_line(&mut client, cmd.trim()) {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    let _ = client.close();
    if failed {
        std::process::exit(1);
    }
}

fn run_line(client: &mut Client, line: &str) -> Result<()> {
    if let Some(rest) = line.strip_prefix('\\') {
        let mut parts = rest.split_whitespace();
        match parts.next() {
            Some("ping") => {
                client.ping()?;
                println!("pong");
            }
            Some("set") => {
                let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
                    return Err(DbError::Exec("usage: \\set KEY VALUE".into()));
                };
                client.set(key, value)?;
                println!("set {key} = {value}");
            }
            other => {
                return Err(DbError::Exec(format!(
                    "unknown command \\{} (try \\ping, \\set, \\q)",
                    other.unwrap_or_default()
                )))
            }
        }
        return Ok(());
    }
    let first = line.split_whitespace().next().unwrap_or_default().to_ascii_uppercase();
    match first.as_str() {
        "SELECT" | "EXPLAIN" => {
            let result = client.query(line)?;
            print_result(&result);
        }
        _ => {
            let n = client.execute(line)?;
            println!("ok ({n} rows affected)");
        }
    }
    Ok(())
}

fn print_result(result: &QueryResult) {
    println!("{}", result.columns.join("\t"));
    for row in &result.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    println!("({} rows)", result.rows.len());
}
