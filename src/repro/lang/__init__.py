"""CLC: the Cloudless Configuration Language.

A from-scratch declarative IaC language with HCL2 semantics -- the
substrate for every lifecycle stage in the cloudless framework (paper
section 2.1, Figure 2).

Typical use::

    from repro.lang import Configuration, ModuleContext

    cfg = Configuration.parse('''
    variable "name" { default = "web" }
    resource "aws_vm" "box" { name = var.name }
    ''')
    ctx = ModuleContext(cfg)
"""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "ast_nodes": (
            "AttrAccess",
            "Attribute",
            "BinaryOp",
            "Block",
            "Body",
            "Conditional",
            "ConfigFile",
            "Expr",
            "ForExpr",
            "FunctionCall",
            "IndexAccess",
            "ListExpr",
            "Literal",
            "ObjectExpr",
            "ScopeRef",
            "SplatExpr",
            "TemplateExpr",
            "UnaryOp",
            "walk_expr",
        ),
        "chunker": ("SourceChunk", "chunk_fingerprints", "iter_chunks"),
        "config": (
            "Configuration",
            "LifecycleOptions",
            "ModuleCall",
            "OutputDecl",
            "ProviderConfig",
            "ResourceDecl",
            "VariableDecl",
            "VariableValidation",
        ),
        "context": ("ModuleContext", "ResourceResolver", "StaticResolver"),
        "diagnostics": (
            "CLCError",
            "CLCEvalError",
            "CLCSyntaxError",
            "Diagnostic",
            "DiagnosticSink",
            "Severity",
            "SourceSpan",
        ),
        "evaluator": ("Evaluator", "Scope", "evaluate"),
        "functions": ("FUNCTIONS", "call_function"),
        "lexer": ("Lexer", "tokenize"),
        "module_loader": (
            "DictModuleLoader",
            "FileSystemModuleLoader",
            "ModuleLoader",
            "NullModuleLoader",
        ),
        "parser": ("Parser", "parse_expression_source", "parse_file"),
        "references": ("Reference", "body_references", "extract_references"),
        "values": ("UNKNOWN", "Unknown", "is_unknown", "to_string", "type_name"),
    },
)
